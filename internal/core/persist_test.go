package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sched"
	"repro/internal/testkit"
)

func TestCalibrationRoundTrip(t *testing.T) {
	p := initPipeline(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	if err := p.SaveCalibration(path); err != nil {
		t.Fatal(err)
	}

	q := MustNew(testkit.Config())
	if err := q.LoadCalibration(path, testkit.Universe()); err != nil {
		t.Fatal(err)
	}
	// Classification and matrix must be identical.
	for name, cls := range p.Classes() {
		if q.Classes()[name] != cls {
			t.Fatalf("class of %s changed across round trip", name)
		}
	}
	for a := range p.Matrix().Slowdown {
		for b := range p.Matrix().Slowdown[a] {
			if p.Matrix().Slowdown[a][b] != q.Matrix().Slowdown[a][b] {
				t.Fatalf("matrix cell [%d][%d] changed", a, b)
			}
		}
	}
	// The restored pipeline must be runnable without Init.
	queue, err := q.Queue([]string{"miniM", "miniA"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := q.Run(queue, 2, sched.ILP)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput() <= 0 {
		t.Fatal("restored pipeline produced no throughput")
	}
}

func TestLoadCalibrationValidation(t *testing.T) {
	p := initPipeline(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	if err := p.SaveCalibration(path); err != nil {
		t.Fatal(err)
	}

	q := MustNew(testkit.Config())
	// Universe mismatch: fewer apps.
	if err := q.LoadCalibration(path, testkit.Universe()[:2]); err == nil {
		t.Error("short universe accepted")
	}
	// Universe mismatch: renamed app.
	apps := testkit.Universe()
	apps[0].Name = "other"
	if err := q.LoadCalibration(path, apps); err == nil {
		t.Error("renamed universe accepted")
	}
	// Missing file.
	if err := q.LoadCalibration(filepath.Join(dir, "nope.json"), testkit.Universe()); err == nil {
		t.Error("missing file accepted")
	}
	// Corrupt file.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := q.LoadCalibration(bad, testkit.Universe()); err == nil {
		t.Error("corrupt file accepted")
	}
}

func TestSaveCalibrationRequiresInit(t *testing.T) {
	p := MustNew(testkit.Config())
	if err := p.SaveCalibration(filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Fatal("uninitialized save accepted")
	}
	var none []kernel.Params
	_ = none
}

// TestCalibrationCacheDirectory checks that an explicit REPRO_CALIBRATION
// names a directory with one file per device, created on first save,
// and that the atomic write leaves no temporary file behind.
func TestCalibrationCacheDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	t.Setenv("REPRO_CALIBRATION", dir)
	big, small := CalibrationCachePath("GTX480-60SM"), CalibrationCachePath("Small-8SM")
	if big == small {
		t.Fatalf("two devices share cache path %s", big)
	}
	for _, path := range []string{big, small} {
		if filepath.Dir(path) != dir {
			t.Fatalf("cache path %s outside %s", path, dir)
		}
	}

	p := initPipeline(t)
	path := CalibrationCachePath(p.Config().Name)
	if err := p.SaveCalibration(path); err != nil {
		t.Fatal(err)
	}
	// Saving twice replaces the file in place.
	if err := p.SaveCalibration(path); err != nil {
		t.Fatal(err)
	}
	q := MustNew(testkit.Config())
	if err := q.LoadCalibration(path, testkit.Universe()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("cache directory holds %v, want only %s", names, filepath.Base(path))
	}

	t.Setenv("REPRO_CALIBRATION", "off")
	if got := CalibrationCachePath("GTX480-60SM"); got != "" {
		t.Fatalf("REPRO_CALIBRATION=off resolved %q", got)
	}
}
