// Package chaos is a deterministic fault-schedule engine for the
// simulated V domain.
//
// The paper's §2.2 reliability argument — distributed name interpretation
// keeps every object on a live server nameable, where a centralized name
// server is a single point of failure — is only demonstrable *during*
// faults. This package scripts faults as a declarative schedule of
// virtual-time events over the existing injection hooks (netsim frame
// loss and partitions, kernel host crash/restart) so that fault scenarios
// replay identically: the same schedule and seed produce byte-identical
// event logs and identical client-visible outcomes, run after run.
//
// The engine has no clock of its own. Workloads pump it by calling
// AdvanceTo with their session's virtual time — from the operation loop
// and, through the client's retry observer, from inside backoff waits, so
// a scripted restart becomes visible exactly when a waiting client's
// clock passes it.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/vtime"
)

// Action is the kind of fault (or repair) an event performs.
type Action int

const (
	// SetLoss sets the network frame-loss probability to Rate.
	SetLoss Action = iota
	// Partition moves Host into partition group Group.
	Partition
	// Heal returns every host to partition group 0.
	Heal
	// Crash takes Host down, destroying its processes and service table.
	Crash
	// Restart brings Host back up (empty tables; re-created servers get
	// new pids — the §4.2 rebinding scenario). The engine's RestartHook,
	// if set, then re-creates the host's servers. A host that is already
	// up is left as it is, and no hook runs.
	Restart
	// Redefine deletes and re-adds the context prefix Name, bound to
	// shard Shard's root, through an admin session on the prefix host —
	// the mid-run rebinding whose invalidation barrier the lease
	// experiments measure. Only the rig knows where the prefix server
	// and the shards live, so the engine's RedefineHook executes it.
	Redefine
)

// actionNames are the actions' String and JSON names, indexed by Action.
var actionNames = [...]string{"set-loss", "partition", "heal", "crash", "restart", "redefine"}

// String names the action for event logs.
func (a Action) String() string {
	if a >= 0 && int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// MarshalText renders the action as its String name, so a schedule
// serializes legibly.
func (a Action) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText parses a String name back into the action.
func (a *Action) UnmarshalText(text []byte) error {
	for i, name := range actionNames {
		if name == string(text) {
			*a = Action(i)
			return nil
		}
	}
	return fmt.Errorf("chaos: unknown action %q", text)
}

// Event is one scheduled fault. Only the fields its Action reads are
// meaningful.
type Event struct {
	// At is the virtual time the event fires (first AdvanceTo at or past
	// it).
	At vtime.Time
	// Action selects what the event does.
	Action Action
	// Host names the target host (Partition, Crash, Restart).
	Host string
	// Group is the partition group (Partition).
	Group int
	// Rate is the frame-loss probability (SetLoss).
	Rate float64
	// Note is free text appended to the log line.
	Note string
	// Name is the context prefix a Redefine rebinds, and Shard the shard
	// whose root it is rebound to.
	Name  string
	Shard int
	// AtEventTime makes a Redefine commit at the event's own time: the
	// admin's clock is advanced to At first. Without it the mutation
	// commits at the prefix server's clock, which stalls while the server
	// is partitioned away — A17's partition leg measures its stale window
	// from that stalled commit, A19's frontier from the scheduled one.
	AtEventTime bool
}

// Engine fires a sorted schedule of events as virtual time passes.
type Engine struct {
	// RestartHook, if set, is called after a Restart event with the
	// host's name, to re-create the servers that lived there (the engine
	// can restart a host kernel, but only the rig knows what ran on it).
	// An error it returns is logged as the event's hook-error.
	RestartHook func(host string) error
	// RedefineHook executes a Redefine event. Every rig topology's
	// NewChaos installs it; without it the event logs an error.
	RedefineHook func(ev Event) error

	k      *kernel.Kernel
	mu     sync.Mutex
	events []Event
	next   int
	log    []string
}

// New builds an engine over the domain's kernel. The schedule is copied
// and stably sorted by fire time, so equal-time events keep their given
// order.
func New(k *kernel.Kernel, events []Event) *Engine {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	return &Engine{k: k, events: sorted}
}

// AdvanceTo fires, in order, every not-yet-fired event whose time is at
// or before now. Callers pump it with their session's virtual clock; it
// is safe to call from several sessions, and each event fires exactly
// once.
func (e *Engine) AdvanceTo(now vtime.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.next < len(e.events) && e.events[e.next].At <= now {
		ev := e.events[e.next]
		e.next++
		e.fireLocked(ev)
	}
}

// fireLocked executes one event and logs the outcome. Called with e.mu
// held.
func (e *Engine) fireLocked(ev Event) {
	// Event times are exact virtual timestamps, which makes the engine the
	// one place that can mark server up/down transitions deterministically
	// on the health timeline.
	reg := e.k.Metrics()
	reg.Counter("chaos_events_total", metrics.Labels{Class: ev.Action.String()}).Inc()
	h := e.k.HostByName(ev.Host)
	outcome := "host=" + ev.Host
	switch {
	case ev.Action == SetLoss:
		e.k.Network().SetDropRate(ev.Rate)
		outcome = fmt.Sprintf("rate=%.2f", ev.Rate)
	case ev.Action == Heal:
		e.k.Network().Heal()
		outcome = "all groups -> 0"
	case ev.Action == Redefine:
		outcome = "ok"
		if e.RedefineHook == nil {
			outcome = "error=no redefine hook installed"
		} else if err := e.RedefineHook(ev); err != nil {
			outcome = "error=" + err.Error()
		}
	case ev.Action < 0 || int(ev.Action) >= len(actionNames):
		outcome = "unknown action"
	// The rest — Partition, Crash and Restart — act on a host.
	case h == nil:
		outcome += " unknown"
	case ev.Action == Partition:
		e.k.Network().Partition(h.ID(), ev.Group)
		outcome += fmt.Sprintf(" group=%d", ev.Group)
	case ev.Action == Crash:
		h.Crash()
		reg.Timeline(metrics.TimelineServerUp, metrics.Labels{Host: ev.Host}).Mark(ev.At, 0)
	case !h.Restart(): // its servers live on: re-creating them would orphan them
		outcome += " already up"
	default:
		reg.Timeline(metrics.TimelineServerUp, metrics.Labels{Host: ev.Host}).Mark(ev.At, 1)
		if e.RestartHook != nil {
			if err := e.RestartHook(ev.Host); err != nil {
				outcome += " hook-error=" + err.Error()
			}
		}
	}
	line := fmt.Sprintf("t=%08dus %-9s %s", ev.At.Microseconds(), ev.Action, outcome)
	if ev.Note != "" {
		line += " (" + ev.Note + ")"
	}
	e.log = append(e.log, line)
}

// Log returns a copy of the fired-event log, one line per event in fire
// order. Two runs of the same schedule produce byte-identical logs — the
// determinism the virtual-time substrate guarantees.
func (e *Engine) Log() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.log))
	copy(out, e.log)
	return out
}

// CheckLog returns the first line of a fired-event log whose event was
// not carried out, as an error: a restart hook failed, or the event named
// an unknown host or action. A Redefine that fails is not one: it is
// logged as error=… and the run goes on.
func CheckLog(log []string) error {
	for _, line := range log {
		// The outcome precedes the event's note, which is free text.
		if outcome, _, _ := strings.Cut(line, " ("); strings.Contains(outcome, " hook-error=") || strings.Contains(outcome, " unknown") {
			return fmt.Errorf("chaos: event not carried out: %s", line)
		}
	}
	return nil
}

// NextEventAt returns the fire time of the earliest event that has not
// fired yet, and whether one remains. The sharded workload drivers use
// it as a fence source (PROTOCOL.md §12): each pending event time
// becomes a global barrier, so the event fires at a deterministic
// quiescent cut instead of whenever some lane's pump happens past it.
func (e *Engine) NextEventAt() (vtime.Time, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.next >= len(e.events) {
		return 0, false
	}
	return e.events[e.next].At, true
}

// TwoOutages is the fixed schedule the A14 health report is pinned
// against, aimed at host: two crash/restart outages, 500 ms each.
func TwoOutages(host string) []Event {
	return []Event{
		{At: 300 * time.Millisecond, Action: Crash, Host: host, Note: "first outage"},
		{At: 800 * time.Millisecond, Action: Restart, Host: host},
		{At: 1600 * time.Millisecond, Action: Crash, Host: host, Note: "second outage"},
		{At: 2100 * time.Millisecond, Action: Restart, Host: host},
	}
}

// Profile parameterizes the random-chaos generator: repeated host
// outages (crash, then restart after OutageLength) and frame-loss pulses
// (loss at LossRate for LossPulseLength, then clean), with the gaps
// jittered around their means.
type Profile struct {
	// Duration is the schedule's length: no outage or loss pulse starts
	// after it. One that starts inside still ends — its Restart or
	// clearing SetLoss may land up to OutageLength or LossPulseLength
	// past Duration, so no host stays down and no pulse stays on.
	Duration time.Duration
	// Hosts are the outage candidates, picked uniformly per outage.
	// Outages on one host may overlap: the second crash finds it down
	// already, and the first restart ends both (the second is logged
	// "already up").
	Hosts []string
	// MeanOutageEvery is the average gap between outage starts; zero
	// disables outages.
	MeanOutageEvery time.Duration
	// OutageLength is how long a crashed host stays down.
	OutageLength time.Duration
	// MeanLossPulseEvery is the average gap between loss pulses; zero
	// disables them.
	MeanLossPulseEvery time.Duration
	// LossPulseLength is how long a pulse lasts.
	LossPulseLength time.Duration
	// LossRate is the frame-loss probability during a pulse.
	LossRate float64
}

// Generate produces a schedule from a seed, deterministically: the same
// seed and profile always yield the same events. Gaps are jittered
// uniformly in [0.5, 1.5) of their mean.
func Generate(seed int64, p Profile) []Event {
	rng := rand.New(rand.NewSource(seed))
	jitter := func(mean time.Duration) time.Duration {
		return time.Duration(float64(mean) * (0.5 + rng.Float64()))
	}
	var events []Event
	if p.MeanOutageEvery > 0 && len(p.Hosts) > 0 {
		for t := jitter(p.MeanOutageEvery); t < p.Duration; t += jitter(p.MeanOutageEvery) {
			host := p.Hosts[rng.Intn(len(p.Hosts))]
			events = append(events,
				Event{At: t, Action: Crash, Host: host, Note: "scheduled outage"},
				Event{At: t + p.OutageLength, Action: Restart, Host: host, Note: "outage over"},
			)
		}
	}
	if p.MeanLossPulseEvery > 0 && p.LossRate > 0 {
		for t := jitter(p.MeanLossPulseEvery); t < p.Duration; t += jitter(p.MeanLossPulseEvery) {
			events = append(events,
				Event{At: t, Action: SetLoss, Rate: p.LossRate, Note: "loss pulse"},
				Event{At: t + p.LossPulseLength, Action: SetLoss, Rate: 0, Note: "pulse over"},
			)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}
