package chaos

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/vtime"
)

func newDomain(t *testing.T) *kernel.Kernel {
	t.Helper()
	return kernel.New(netsim.New(vtime.DefaultModel(), 1))
}

// up reports whether h accepts a new process, as only a live host does.
func up(h *kernel.Host) bool {
	p, err := h.NewProcess("probe")
	if err != nil {
		return false
	}
	p.Destroy()
	return true
}

func TestEngineFiresInOrder(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("victim")

	// Deliberately unsorted schedule; the engine sorts by fire time.
	e := New(k, []Event{
		{At: 300 * time.Millisecond, Action: Restart, Host: "victim"},
		{At: 100 * time.Millisecond, Action: Crash, Host: "victim"},
		{At: 200 * time.Millisecond, Action: SetLoss, Rate: 0.5},
	})

	e.AdvanceTo(50 * time.Millisecond)
	if len(e.Log()) != 0 || !up(h) {
		t.Fatalf("nothing should fire before its time (fired=%d)", len(e.Log()))
	}

	e.AdvanceTo(150 * time.Millisecond)
	if len(e.Log()) != 1 || up(h) {
		t.Fatalf("crash should have fired (fired=%d alive=%v)", len(e.Log()), up(h))
	}

	e.AdvanceTo(400 * time.Millisecond)
	if len(e.Log()) != 3 || !up(h) || k.Network().DropRate() != 0.5 {
		t.Fatalf("all events should have fired (fired=%d alive=%v rate=%v)",
			len(e.Log()), up(h), k.Network().DropRate())
	}

	log := e.Log()
	if len(log) != 3 || !strings.Contains(log[0], "crash") ||
		!strings.Contains(log[1], "set-loss") || !strings.Contains(log[2], "restart") {
		t.Fatalf("log = %q", log)
	}
}

// TestRestartHookRuns: two overlapping outages of one host — crash,
// crash, restart, restart. The first restart brings the host up and runs
// the hook, whose error is logged; the second finds it up and re-creates
// nothing, so the servers the hook made are not orphaned.
func TestRestartHookRuns(t *testing.T) {
	k := newDomain(t)
	k.NewHost("fs")
	e := New(k, []Event{
		{At: 1 * time.Millisecond, Action: Crash, Host: "fs"},
		{At: 2 * time.Millisecond, Action: Crash, Host: "fs"},
		{At: 3 * time.Millisecond, Action: Restart, Host: "fs"},
		{At: 4 * time.Millisecond, Action: Restart, Host: "fs"},
	})
	var hooked []string
	e.RestartHook = func(host string) error {
		hooked = append(hooked, host)
		return errors.New("no image")
	}
	e.AdvanceTo(time.Second)
	if !reflect.DeepEqual(hooked, []string{"fs"}) {
		t.Fatalf("hooked = %v, want [fs]", hooked)
	}
	log := e.Log()
	if !strings.HasSuffix(log[2], "host=fs hook-error=no image") || !strings.HasSuffix(log[3], "host=fs already up") {
		t.Fatalf("restarts logged %q", log)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Profile{
		Duration:           3 * time.Second,
		Hosts:              []string{"fs1", "fs2"},
		MeanOutageEvery:    600 * time.Millisecond,
		OutageLength:       200 * time.Millisecond,
		MeanLossPulseEvery: 900 * time.Millisecond,
		LossPulseLength:    150 * time.Millisecond,
		LossRate:           0.3,
	}
	a, b := Generate(7, p), Generate(7, p)
	if len(a) == 0 {
		t.Fatal("profile should generate events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed must generate the same schedule:\n%v\n%v", a, b)
	}
	c := Generate(8, p)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should generate different schedules")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule not sorted at %d: %v then %v", i, a[i-1].At, a[i].At)
		}
	}
}

// TestGenerateEndsWhatItStarts pins the Profile.Duration contract: no
// outage or pulse starts after Duration, but every one that starts is
// also ended — each Crash has a later Restart of the same host and each
// loss pulse a later clearing SetLoss — even when that lands past
// Duration.
func TestGenerateEndsWhatItStarts(t *testing.T) {
	p := Profile{
		Duration:           time.Second,
		Hosts:              []string{"fs1", "fs2"},
		MeanOutageEvery:    300 * time.Millisecond,
		OutageLength:       400 * time.Millisecond,
		MeanLossPulseEvery: 250 * time.Millisecond,
		LossPulseLength:    350 * time.Millisecond,
		LossRate:           0.3,
	}
	pastDuration := false
	for seed := int64(1); seed <= 20; seed++ {
		events := Generate(seed, p)
		for i, ev := range events {
			starts := ev.Action == Crash || (ev.Action == SetLoss && ev.Rate > 0)
			if !starts {
				pastDuration = pastDuration || ev.At > p.Duration
				continue
			}
			if ev.At >= p.Duration {
				t.Fatalf("seed %d: %v starts at %v, past Duration", seed, ev.Action, ev.At)
			}
			ended := false
			for _, later := range events[i+1:] {
				if ev.Action == Crash {
					ended = ended || (later.Action == Restart && later.Host == ev.Host && later.At > ev.At)
				} else {
					ended = ended || (later.Action == SetLoss && later.Rate == 0 && later.At > ev.At)
				}
			}
			if !ended {
				t.Fatalf("seed %d: %v at %v is never ended:\n%v", seed, ev.Action, ev.At, events)
			}
		}
	}
	if !pastDuration {
		t.Fatal("no ending event landed past Duration; the profile no longer exercises the contract")
	}
}

// TestActionTextRoundTrip: every action marshals as its String name and
// parses back; an unknown name is an error.
func TestActionTextRoundTrip(t *testing.T) {
	for a := SetLoss; a <= Redefine; a++ {
		text, err := a.MarshalText()
		if err != nil || string(text) != a.String() {
			t.Fatalf("%v marshals as %q, %v", a, text, err)
		}
		var back Action
		if err := back.UnmarshalText(text); err != nil || back != a {
			t.Fatalf("%q parses as %v, %v", text, back, err)
		}
	}
	var a Action
	if err := a.UnmarshalText([]byte("custom")); err == nil {
		t.Fatal("unknown action name accepted")
	}
}
