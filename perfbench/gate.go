package main

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
)

// recordedDigests holds "NAME SEED SHA256" lines: the digest of every op's
// output at the default seed, recorded once and checked on every run.
//
//go:embed digests.txt
var recordedDigests string

// recordedDigest returns the recorded digest for an op shape and seed.
func recordedDigest(name string, seed uint64) (string, bool) {
	for _, line := range strings.Split(recordedDigests, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if f[0] == name && f[1] == strconv.FormatUint(seed, 10) {
			return f[2], true
		}
	}
	return "", false
}

// gate judges each op's output. With a recorded digest for the
// (workload, seed), every op must reproduce it; on a held-out seed the
// first op's digest becomes the reference every later op must match.
// Either way the op must conserve jobs.
type gate struct {
	name     string
	want     string
	recorded bool
}

func newGate(name string, seed uint64) *gate {
	want, ok := recordedDigest(name, seed)
	return &gate{name: name, want: want, recorded: ok}
}

// check returns why an op's output is wrong, or nil.
func (g *gate) check(r opResult) error {
	if !r.Conserved {
		return fmt.Errorf("conservation broken: submitted %d != completed %d + rejected %d + abandoned %d",
			r.Submitted, r.Completed, r.Rejected, r.Abandoned)
	}
	switch {
	case g.want == "":
		g.want = r.Digest
	case r.Digest != g.want && g.recorded:
		return fmt.Errorf("output digest %s differs from the recorded %s", r.Digest, g.want)
	case r.Digest != g.want:
		return fmt.Errorf("output digest %s differs from this run's first op (%s)", r.Digest, g.want)
	}
	return nil
}

// ledger counts ops attempted and failed. An op fails if it returned an
// error or its output did not pass the gate.
type ledger struct {
	attempted, failed int
}

// record books one op and returns why it failed, or nil.
func (l *ledger) record(g *gate, r opResult, opErr error) error {
	l.attempted++
	err := opErr
	if err == nil {
		err = g.check(r)
	}
	if err != nil {
		l.failed++
	}
	return err
}

func (l ledger) failedFrac() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}
