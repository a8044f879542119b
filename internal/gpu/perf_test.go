package gpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/kernel"
	"repro/internal/testkit"
)

func BenchmarkStepStream(b *testing.B) {
	cfg := config.GTX480()
	d := MustNew(cfg)
	k := kernel.MustNew(kernel.Params{
		Name: "STR", CTAs: 4000, WarpsPerCTA: 6, InstrsPerWarp: 4000,
		MemEvery: 5, Pattern: kernel.PatternStream, CoalescedLines: 4,
		FootprintBytes: 64 << 20, Seed: 2,
	}, cfg.L1.LineBytes)
	sms := make([]int, cfg.NumSMs)
	for i := range sms {
		sms[i] = i
	}
	if _, err := d.Launch(k, sms); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		d.Step() // warm up
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step()
	}
}

// BenchmarkDeviceStepMemBound measures one device cycle in the
// stall-heavy case: two class-M streams (testkit miniM, grid enlarged so
// it never finishes) on an even split of the Small-8SM device. Warps
// mostly wait on MSHRs and the output queue, and the DRAM queues stay
// deep.
func BenchmarkDeviceStepMemBound(b *testing.B) {
	cfg := testkit.Config()
	d := MustNew(cfg)
	per := cfg.NumSMs / 2
	for i := 0; i < 2; i++ {
		params := testkit.MiniM()
		params.CTAs *= 1000
		k := kernel.MustNew(params, cfg.L1.LineBytes)
		k.BaseAddr = uint64(i+1) << 40
		sms := make([]int, per)
		for j := range sms {
			sms[j] = i*per + j
		}
		if _, err := d.Launch(k, sms); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20000; i++ {
		d.Step() // warm up past the launch transient
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step()
	}
}
