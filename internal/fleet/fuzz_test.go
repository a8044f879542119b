package fleet

import (
	"fmt"
	"strings"
	"testing"
)

// renderRoster is the canonical spelling of parsed roster entries —
// what ParseRoster's round-trip property re-parses.
func renderRoster(entries []RosterEntry) string {
	var b strings.Builder
	for i, e := range entries {
		if i > 0 {
			b.WriteByte(',')
		}
		if e.Count == 1 {
			b.WriteString(e.Name)
		} else {
			fmt.Fprintf(&b, "%dx%s", e.Count, e.Name)
		}
	}
	return b.String()
}

// FuzzParseRoster drives the roster parser with arbitrary input. The
// parser must never panic, and any accepted input must round-trip: the
// canonical rendering of the parsed entries re-parses to the very same
// entries.
func FuzzParseRoster(f *testing.F) {
	for _, seed := range []string{
		"GTX480", "gtx480-60sm", "Small", "small-8sm",
		"2xGTX480,2xSmall-8SM", "1xGTX480", " GTX480 , Small ",
		"", ",", "0xGTX480", "-1xSmall", "2x", "x", "2xNope",
		"GTX480,,Small", "999999999999999999999xGTX480",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		entries, err := ParseRoster(s)
		if err != nil {
			return
		}
		if len(entries) == 0 {
			t.Fatalf("ParseRoster(%q) accepted with no entries", s)
		}
		for _, e := range entries {
			if e.Count < 1 {
				t.Fatalf("ParseRoster(%q) produced count %d", s, e.Count)
			}
			if e.Name == "" {
				t.Fatalf("ParseRoster(%q) produced an empty name", s)
			}
		}
		canon := renderRoster(entries)
		again, err := ParseRoster(canon)
		if err != nil {
			t.Fatalf("ParseRoster(%q) round-trip %q rejected: %v", s, canon, err)
		}
		if len(again) != len(entries) {
			t.Fatalf("ParseRoster(%q) round-trip %q: %d entries, want %d", s, canon, len(again), len(entries))
		}
		for i := range entries {
			if again[i] != entries[i] {
				t.Fatalf("ParseRoster(%q) round-trip %q: entry %d = %+v, want %+v", s, canon, i, again[i], entries[i])
			}
		}
	})
}

// renderTrace is the canonical spelling of parsed trace arrivals.
func renderTrace(arrivals []Arrival) string {
	var b strings.Builder
	for i, a := range arrivals {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s@%d", a.Name, a.Cycle)
		if a.SLO == Latency {
			fmt.Fprintf(&b, "!%d", a.Deadline)
		}
	}
	return b.String()
}

// FuzzParseTrace drives the NAME@CYCLE[!DEADLINE] trace parser with
// arbitrary input: never panic, and accepted inputs round-trip through
// the canonical rendering.
func FuzzParseTrace(f *testing.F) {
	for _, seed := range []string{
		"mm@0", "mm@0,conv@5000", "mm@100!60000",
		"mm@0!0", " mm @5 ", "a@1,b@2!3,c@4",
		"", "@5", "mm@", "mm@-1", "mm@1.5", "mm@1!x",
		"mm@18446744073709551615", "mm@18446744073709551616",
		"a@@5", "a!5@1", ",", "a@5,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		arrivals, err := ParseTrace(s)
		if err != nil {
			return
		}
		if len(arrivals) == 0 {
			t.Fatalf("ParseTrace(%q) accepted with no arrivals", s)
		}
		for _, a := range arrivals {
			if a.Name == "" {
				t.Fatalf("ParseTrace(%q) produced an empty name", s)
			}
			if a.SLO == Batch && a.Deadline != 0 {
				t.Fatalf("ParseTrace(%q) produced a batch arrival with a deadline: %+v", s, a)
			}
		}
		canon := renderTrace(arrivals)
		again, err := ParseTrace(canon)
		if err != nil {
			t.Fatalf("ParseTrace(%q) round-trip %q rejected: %v", s, canon, err)
		}
		if len(again) != len(arrivals) {
			t.Fatalf("ParseTrace(%q) round-trip %q: %d arrivals, want %d", s, canon, len(again), len(arrivals))
		}
		for i := range arrivals {
			if again[i] != arrivals[i] {
				t.Fatalf("ParseTrace(%q) round-trip %q: arrival %d = %+v, want %+v", s, canon, i, again[i], arrivals[i])
			}
		}
	})
}

// FuzzParseChaos drives the KIND@CYCLE:DEV chaos-trace parser with
// arbitrary input: never panic, and accepted inputs round-trip through
// FormatChaos, the canonical rendering.
func FuzzParseChaos(f *testing.F) {
	for _, seed := range []string{
		"fail@1000:2", "drain@0:0", "restore@500:1",
		"fail@1000:0,restore@2000:0", "FAIL@9:3", " fail@5:0 , drain@6:1 ",
		"fail@18446744073709551615:0", "fail@18446744073709551616:0",
		"", ",", "fail", "fail@", "fail@5", "fail@5:", "fail@:1",
		"fail@-5:0", "fail@5:-1", "fail@5.5:0", "evict@5:0", "@5:0",
		"fail@5:0,", "fail@5:0:9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		events, err := ParseChaos(s)
		if err != nil {
			return
		}
		if len(events) == 0 {
			t.Fatalf("ParseChaos(%q) accepted with no events", s)
		}
		for _, ev := range events {
			if ev.Device < 0 {
				t.Fatalf("ParseChaos(%q) produced device %d", s, ev.Device)
			}
			switch ev.Kind {
			case ChaosFail, ChaosDrain, ChaosRestore:
			default:
				t.Fatalf("ParseChaos(%q) produced kind %v", s, ev.Kind)
			}
		}
		canon := FormatChaos(events)
		again, err := ParseChaos(canon)
		if err != nil {
			t.Fatalf("ParseChaos(%q) round-trip %q rejected: %v", s, canon, err)
		}
		if len(again) != len(events) {
			t.Fatalf("ParseChaos(%q) round-trip %q: %d events, want %d", s, canon, len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("ParseChaos(%q) round-trip %q: event %d = %+v, want %+v", s, canon, i, again[i], events[i])
			}
		}
		if FormatChaos(again) != canon {
			t.Fatalf("ParseChaos(%q): canonical form %q is not a fixed point", s, canon)
		}
	})
}

// FuzzParseControls drives the control-surface spelling parsers
// together (admission and autoscale share the PREFIX:VALUE shape, and
// every parser reads "off"): never panic, accepted inputs re-parse to
// the same configuration, "off" is the zero value, and every other
// accepted spelling switches its surface on.
func FuzzParseControls(f *testing.F) {
	for _, seed := range []string{
		"off", "OFF", "", "reject:60000", "degrade:25000",
		"reject:0", "reject:", "reject", "admit:5", "degrade:-1",
		"1:4", "2:8", "0:4", "4:2", "1:", ":4", "1:4:9", "x:y",
		"preempt", "mtbf:100:20", "fail@5:0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		off := s == "" || strings.EqualFold(s, "off")
		if adm, err := ParseAdmission(s); err == nil {
			if adm.on() == off || off && adm != (AdmissionConfig{}) {
				t.Fatalf("ParseAdmission(%q) = %+v: on() = %v for off = %v", s, adm, adm.on(), off)
			}
			again, err := ParseAdmission(s)
			if err != nil || again != adm {
				t.Fatalf("ParseAdmission(%q) not stable: %+v vs %+v (%v)", s, adm, again, err)
			}
		}
		if m, err := ParseSLOMode(s); err == nil && (m != SLOOff) == off {
			t.Fatalf("ParseSLOMode(%q) = %v for off = %v", s, m, off)
		}
		if ch, err := ParseChaosSpec(s); err == nil && ch.on() == off {
			t.Fatalf("ParseChaosSpec(%q) = %+v: on() = %v for off = %v", s, ch, ch.on(), off)
		}
		if as, err := ParseAutoscale(s); err == nil {
			if as.on() == off || off && as != (AutoscaleConfig{}) {
				t.Fatalf("ParseAutoscale(%q) = %+v: on() = %v for off = %v", s, as, as.on(), off)
			}
			if as.on() && (as.Min < 1 || as.Max < as.Min) {
				t.Fatalf("ParseAutoscale(%q) accepted invalid bounds: %+v", s, as)
			}
			again, err := ParseAutoscale(s)
			if err != nil || again != as {
				t.Fatalf("ParseAutoscale(%q) not stable: %+v vs %+v (%v)", s, as, again, err)
			}
		}
	})
}
