package pthread

import (
	"runtime"
	"testing"
	"time"
)

// TestSpinPhases pins Spin's two phases: spinRounds clock-free polls for
// every waiter, and then, only with the processor-fit signal, polls until
// spinBudget has passed.
func TestSpinPhases(t *testing.T) {
	t.Run("no-fit", func(t *testing.T) {
		calls := 0
		if Spin(false, func() bool { calls++; return false }) {
			t.Fatal("Spin returned true, but ready never did")
		}
		if calls != spinRounds {
			t.Errorf("ready polled %d times, want spinRounds = %d", calls, spinRounds)
		}
	})

	// polls runs one fitting Spin whose ready turns true at poll readyAt
	// (never, if 0), and reports its result, the polls made and how long
	// after the spinRounds-th poll it returned.
	polls := func(readyAt int) (ok bool, calls int, afterRounds time.Duration) {
		var roundsDone time.Time
		ok = Spin(true, func() bool {
			calls++
			if calls == spinRounds {
				roundsDone = time.Now()
			}
			return readyAt > 0 && calls >= readyAt
		})
		return ok, calls, time.Since(roundsDone)
	}

	t.Run("fit-never-ready", func(t *testing.T) {
		ok, calls, after := polls(0)
		if ok {
			t.Fatal("Spin returned true, but ready never did")
		}
		if after < spinBudget {
			t.Errorf("Spin gave up %v after its %dth poll (%d polls), want at least spinBudget = %v",
				after, spinRounds, calls, spinBudget)
		}
	})

	t.Run("fit-ready-at-100", func(t *testing.T) {
		// The 36 polls past spinRounds take microseconds, but the host can
		// deschedule the test for longer than spinBudget. An attempt that
		// gives up must still have spun its whole budget; then another
		// attempt is made.
		const readyAt, attempts = 100, 10
		for i := 0; i < attempts; i++ {
			ok, calls, after := polls(readyAt)
			if ok {
				if calls != readyAt {
					t.Errorf("Spin returned true after %d polls, want exactly %d", calls, readyAt)
				}
				return
			}
			if after < spinBudget {
				t.Fatalf("Spin gave up at poll %d, %v after its %dth: before spinBudget = %v",
					calls, after, spinRounds, spinBudget)
			}
		}
		t.Fatalf("a ready that turns true at poll %d was missed in %d attempts", readyAt, attempts)
	})
}

// TestFitsProcessorsRule pins the rule a barrier and a msgpass world read
// once when built: a waiter spins long only when every party can hold a
// processor, at most runtime.GOMAXPROCS(0) of them.
func TestFitsProcessorsRule(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		parties int
		fits    bool
	}{{1, true}, {procs, true}, {procs + 1, false}} {
		b, err := NewBarrier(tc.parties)
		if err != nil {
			t.Fatal(err)
		}
		if b.fits != tc.fits {
			t.Errorf("NewBarrier(%d) at GOMAXPROCS %d: fits = %v, want %v", tc.parties, procs, b.fits, tc.fits)
		}
	}
}

// TestBarrierParkedRound takes the slow path the long spin now rarely
// reaches: one party of a 2-party barrier built to spin long is held back
// until the other has spun its budget out and parked, and the round must
// still release both, with one serial return. It runs on both arrival
// APIs, which share await.
func TestBarrierParkedRound(t *testing.T) {
	for _, api := range []string{"WaitParty", "Wait"} {
		t.Run(api, func(t *testing.T) {
			b, err := NewBarrier(2)
			if err != nil {
				t.Fatal(err)
			}
			b.fits = true // spin long whatever GOMAXPROCS is
			wait := func(id int) bool {
				if api == "Wait" {
					return b.Wait()
				}
				return b.WaitParty(id)
			}
			first := Create(func() interface{} { return wait(0) })
			for deadline := time.Now().Add(5 * time.Second); b.parked.Load() != 1; {
				if time.Now().After(deadline) {
					wait(1) // release the waiter before failing
					first.Join()
					t.Fatalf("the first party never parked: parked = %d", b.parked.Load())
				}
				time.Sleep(time.Millisecond)
			}
			second := wait(1)
			v, err := first.Join()
			if err != nil {
				t.Fatal(err)
			}
			if firstSerial := v.(bool); firstSerial == second {
				t.Errorf("serial returns %v and %v, want exactly one true", firstSerial, second)
			}
			if got := b.Rounds(); got != 1 {
				t.Errorf("Rounds() = %d, want 1", got)
			}
			if got := b.parked.Load(); got != 0 {
				t.Errorf("parked = %d after the round, want 0", got)
			}
		})
	}
}
