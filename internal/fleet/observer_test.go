package fleet

import (
	"testing"
	"time"

	"repro/internal/tensor"
)

// frameRecorder counts ObserveFrame calls and sums latencies.
type frameRecorder struct {
	n     int
	total time.Duration
}

func (r *frameRecorder) ObserveFrame(elapsed time.Duration) {
	r.n++
	r.total += elapsed
}

func TestFrameObserverSeesEveryDetect(t *testing.T) {
	// Pin the package clock: each read advances 7µs, and Detect reads it
	// exactly twice, so every frame observes exactly one step.
	base := time.Unix(1_700_000_000, 0)
	now = func() time.Time {
		base = base.Add(7 * time.Microsecond)
		return base
	}
	t.Cleanup(func() { now = time.Now })

	inst := newTestInstance(t, "car0", 1)
	rec := &frameRecorder{}
	inst.SetObserver(rec)
	frame := testFrame()
	for i := 0; i < 5; i++ {
		if _, err := inst.Detect(frame); err != nil {
			t.Fatal(err)
		}
	}
	if rec.n != 5 {
		t.Fatalf("observed %d frames, want 5", rec.n)
	}
	if rec.total != 5*7*time.Microsecond {
		t.Errorf("total latency = %v, want 35µs", rec.total)
	}
}

func TestDetectWithoutObserverSkipsClock(t *testing.T) {
	reads := 0
	now = func() time.Time {
		reads++
		return time.Unix(1_700_000_000, 0)
	}
	t.Cleanup(func() { now = time.Now })

	inst := newTestInstance(t, "car0", 1)
	if _, err := inst.Detect(testFrame()); err != nil {
		t.Fatal(err)
	}
	if reads != 0 {
		t.Errorf("Detect without observer read the clock %d times, want 0", reads)
	}
}

// TestConcurrentDetectAndSwitch runs detection on one goroutine while
// another cycles prune levels, then restores: every detection stays
// well-formed, and the restored weights are the dense checkpoint bit for
// bit. Under -race it also checks the instance lock.
func TestConcurrentDetectAndSwitch(t *testing.T) {
	inst := newTestInstance(t, "car0", 1)
	frame := tensor.RandNormal(tensor.NewRNG(77), 0, 1, testFrameSize*testFrameSize)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			if err := inst.ApplyLevel(i % inst.NumLevels()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		det, err := inst.Detect(frame)
		if err != nil {
			t.Fatal(err)
		}
		if det.Confidence < 0 || det.Confidence > 1 {
			t.Fatalf("malformed confidence %v", det.Confidence)
		}
	}
	<-done
	if err := inst.RestoreFull(); err != nil {
		t.Fatal(err)
	}
	if inst.Current() != 0 {
		t.Errorf("current = %d after restore", inst.Current())
	}
	if inst.Scrub() != 0 {
		t.Error("scrub at L0 repaired something")
	}
	if err := inst.rm.VerifyDense(); err != nil {
		t.Errorf("concurrent use corrupted weights: %v", err)
	}
}
