package kernel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOnExitRunsInsideDestroy: the hook has run, once, by the time
// Destroy returns, and a second Destroy runs nothing.
func TestOnExitRunsInsideDestroy(t *testing.T) {
	k := newDomain(t)
	p := newClient(t, k.NewHost("a"), "p")
	var runs int
	p.OnExit(func() {
		runs++
		if err := p.Err(); !errors.Is(err, ErrProcessDead) {
			t.Errorf("Err inside the hook = %v, want ErrProcessDead", err)
		}
	})
	if err := p.Err(); err != nil {
		t.Fatalf("Err = %v while alive", err)
	}
	p.Destroy()
	if runs != 1 {
		t.Fatalf("hook ran %d times by the time Destroy returned, want 1", runs)
	}
	p.Destroy()
	if runs != 1 {
		t.Fatalf("hook ran %d times after a second Destroy, want 1", runs)
	}
	if err := p.Err(); !errors.Is(err, ErrProcessDead) || errors.Is(err, ErrHostDown) {
		t.Fatalf("Err = %v after a clean Destroy, want ErrProcessDead", err)
	}
}

// TestOnExitRunsInsideCrash: every process's hooks have run when Crash
// returns, in pid order, each seeing its death classified as host-down —
// which a Restart does not undo.
func TestOnExitRunsInsideCrash(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	var order []PID
	var procs []*Process
	for i := 0; i < 8; i++ {
		p := newClient(t, h, "p")
		p.OnExit(func() {
			if !errors.Is(p.Err(), ErrHostDown) {
				t.Errorf("Err inside the hook = %v, want ErrHostDown", p.Err())
			}
			order = append(order, p.PID())
		})
		procs = append(procs, p)
	}
	h.Crash()
	if len(order) != len(procs) {
		t.Fatalf("%d hooks ran by the time Crash returned, want %d", len(order), len(procs))
	}
	for i, p := range procs {
		if order[i] != p.PID() {
			t.Fatalf("hooks ran in order %v, want pid order", order)
		}
	}
	h.Restart()
	if err := procs[0].Err(); !errors.Is(err, ErrHostDown) {
		t.Fatalf("Err = %v after Restart, want the crash still recorded", err)
	}
}

// TestOnExitOnDeadProcessRunsAtOnce: a hook installed after the death
// runs before OnExit returns.
func TestOnExitOnDeadProcessRunsAtOnce(t *testing.T) {
	k := newDomain(t)
	p := newClient(t, k.NewHost("a"), "p")
	p.Destroy()
	ran := false
	p.OnExit(func() { ran = true })
	if !ran {
		t.Fatal("hook on a dead process did not run at once")
	}
}

// TestOnExitOnceUnderConcurrentDestroyAndCrash: whichever of a Destroy
// and a Crash kills the process, its hook runs exactly once.
func TestOnExitOnceUnderConcurrentDestroyAndCrash(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	for round := 0; round < 200; round++ {
		p := newClient(t, h, "p")
		var runs atomic.Int32
		p.OnExit(func() { runs.Add(1) })
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); p.Destroy() }()
		go func() { defer wg.Done(); h.Crash() }()
		wg.Wait()
		if n := runs.Load(); n != 1 {
			t.Fatalf("round %d: hook ran %d times, want 1", round, n)
		}
		if err := p.Err(); !errors.Is(err, ErrProcessDead) && !errors.Is(err, ErrHostDown) {
			t.Fatalf("round %d: Err = %v", round, err)
		}
		h.Restart()
	}
}
