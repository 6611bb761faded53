package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/vtime"
)

// CheckOptions parameterises the invariant checker.
type CheckOptions struct {
	// Model is the cost model the wire-span packet accounting (#6) is
	// checked against. It is required: Check refuses a nil Model rather
	// than skip the invariant.
	Model *vtime.CostModel
	// MaxForwardDepth bounds the forward chain of a single transaction
	// (default 16 — far above the two rewrite hops the prefix design
	// ever produces, but low enough to catch a forwarding loop).
	MaxForwardDepth int
	// LeaseBound, when positive, enables the lease staleness invariant
	// (#7): no lease outlives the bound, no cache hit is served at or
	// after its lease's expiry, and after an invalidation commit for a
	// name, no hit backed by a lease granted at or before the commit
	// occurs more than LeaseBound past it (PROTOCOL.md §13).
	LeaseBound time.Duration
}

// Check asserts the protocol-level invariants of a recorded trace:
//
//  1. no span leaks — every started span ended (no Incomplete spans);
//  2. parent links are well-formed: each parent exists and was created
//     before its child (Parent < ID), so the span graph is acyclic by
//     construction;
//  3. send termination — every successful non-group send span contains
//     exactly one successful reply in its own transaction (not counting
//     nested sends); a group send contains at least one; a failed send
//     carries a non-empty failure classification;
//  4. forward chains are bounded: no span has more than MaxForwardDepth
//     forward ancestors;
//  5. per-process virtual time is monotone: for each (PID, proc) the
//     span start times never decrease in creation order, and every span
//     ends at or after it starts;
//  6. wire accounting matches the netsim cost model: local hops carry
//     zero packets, broadcast/multicast frames exactly one, and every
//     remote unicast hop exactly PacketsFor(bytes) packets;
//  7. (with LeaseBound set) lease staleness is bounded: every lease
//     stamp spans at most LeaseBound, every cache hit starts strictly
//     before its lease's expiry, and for every invalidation commit of a
//     name at time Ti, every hit of that name backed by a lease granted
//     at or before Ti starts at or before Ti+LeaseBound.
//
// A nil error means the trace is protocol-clean.
func Check(spans []Span, opt CheckOptions) error {
	if opt.Model == nil {
		return fmt.Errorf("trace: Check needs the cost model (CheckOptions.Model) to account wire packets")
	}
	if opt.MaxForwardDepth <= 0 {
		opt.MaxForwardDepth = 16
	}
	byID := make(map[SpanID]*Span, len(spans))
	children := make(map[SpanID][]*Span, len(spans))
	for i := range spans {
		sp := &spans[i]
		if _, dup := byID[sp.ID]; dup {
			return fmt.Errorf("trace: duplicate span id %d", sp.ID)
		}
		byID[sp.ID] = sp
	}
	lastStart := make(map[ProcID]int64)
	for i := range spans {
		sp := &spans[i]
		// (1) leaks.
		if sp.Incomplete {
			return fmt.Errorf("trace: span %d (%s %q) never ended", sp.ID, sp.Kind, sp.Name)
		}
		// (2) parent links.
		if sp.Parent != 0 {
			parent, ok := byID[sp.Parent]
			if !ok {
				return fmt.Errorf("trace: span %d (%s %q) has unknown parent %d", sp.ID, sp.Kind, sp.Name, sp.Parent)
			}
			if parent.ID >= sp.ID {
				return fmt.Errorf("trace: span %d has parent %d created after it", sp.ID, sp.Parent)
			}
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
		// (5) monotone clocks: End covers Start, and per-process starts
		// never run backwards. Wire spans carry no process identity and
		// are excluded from the per-process scan.
		if sp.End < sp.Start {
			return fmt.Errorf("trace: span %d (%s %q) ends %d before it starts %d", sp.ID, sp.Kind, sp.Name, sp.End, sp.Start)
		}
		if sp.PID != 0 {
			who := ProcID{Name: sp.Proc, PID: sp.PID, Host: sp.Host}
			if prev, ok := lastStart[who]; ok && sp.Start < prev {
				return fmt.Errorf("trace: process %s pid %d time ran backwards: span %d starts %d after a span at %d",
					sp.Proc, sp.PID, sp.ID, sp.Start, prev)
			}
			lastStart[who] = sp.Start
		}
		// (6) wire accounting.
		if sp.Kind == KindWire {
			want := netsim.PacketsFor(sp.Bytes, opt.Model.MaxDataPerPacket)
			switch {
			case sp.Local:
				want = 0
			case sp.Bcast:
				want = 1
			}
			if sp.Packets != want {
				return fmt.Errorf("trace: wire span %d (%q, %d bytes, local=%v bcast=%v) carries %d packets, cost model says %d",
					sp.ID, sp.Name, sp.Bytes, sp.Local, sp.Bcast, sp.Packets, want)
			}
		}
		// (4) forward depth, following parent links.
		depth := 0
		for cur := sp; cur.Parent != 0; {
			cur = byID[cur.Parent]
			if cur == nil {
				break
			}
			if cur.Kind == KindForward {
				depth++
				if depth > opt.MaxForwardDepth {
					return fmt.Errorf("trace: span %d has a forward chain deeper than %d", sp.ID, opt.MaxForwardDepth)
				}
			}
		}
	}
	// (3) send termination.
	for i := range spans {
		sp := &spans[i]
		if sp.Kind != KindSend {
			continue
		}
		if sp.Err != "" {
			continue // classified failure: nothing more to demand
		}
		replies, group := tallyReplies(sp.ID, children)
		group = group || sp.Group
		switch {
		case group && replies < 1:
			return fmt.Errorf("trace: group send span %d (%q) succeeded with no successful reply", sp.ID, sp.Name)
		case !group && replies != 1:
			return fmt.Errorf("trace: send span %d (%q) succeeded with %d successful replies, want exactly 1", sp.ID, sp.Name, replies)
		}
	}
	// (7) lease staleness.
	if opt.LeaseBound > 0 {
		if err := checkLeases(spans, opt.LeaseBound); err != nil {
			return err
		}
	}
	return nil
}

// checkLeases enforces invariant (7): the staleness of every lease-served
// read is bounded by the lease length. Every stamp spans at most the
// bound, every hit lands before its expiry, and the widest stale window
// of every name (StaleWindows) is at most the bound.
func checkLeases(spans []Span, bound time.Duration) error {
	for i := range spans {
		sp := &spans[i]
		if sp.Kind != KindLease || sp.LeaseExpire == 0 {
			continue
		}
		if sp.LeaseExpire-sp.LeaseGrant > int64(bound) {
			return fmt.Errorf("trace: lease span %d (%q) spans %dns, beyond the %v bound",
				sp.ID, sp.Name, sp.LeaseExpire-sp.LeaseGrant, bound)
		}
		if ev, _ := leaseEvent(sp); (ev == "hit" || ev == "negative-hit") && sp.Start >= sp.LeaseExpire {
			return fmt.Errorf("trace: lease hit span %d (%q) at %dns served at or after its expiry %dns",
				sp.ID, sp.Name, sp.Start, sp.LeaseExpire)
		}
	}
	for _, w := range StaleWindows(spans) {
		if w.Window > int64(bound) {
			return fmt.Errorf("trace: stale read: a hit on %q at %dns serves a mapping %dns after the invalidation commit at %dns (bound %v)",
				w.Name, w.Hit, w.Window, w.Commit, bound)
		}
	}
	return nil
}

// StaleWindow is one lease-served read that observed a mapping after an
// invalidation of its name committed: the cached pair was granted at or
// before the commit, yet a hit served it Window nanoseconds past the
// commit. The staleness invariant bounds every Window by the lease
// length; A17 reports the maxima.
type StaleWindow struct {
	Name   string `json:"name"`
	Commit int64  `json:"commit_ns"`
	Hit    int64  `json:"hit_ns"`
	Window int64  `json:"window_ns"`
}

// StaleWindows scans a trace for lease hits that served a mapping after
// an invalidation of the name committed, returning the widest window per
// name in name order. An empty result means every read after every
// invalidation resolved fresh.
func StaleWindows(spans []Span) []StaleWindow {
	// Invalidation commits per name, in span order (creation order, which
	// is not necessarily time order across processes — each hit is checked
	// against every commit).
	commits := make(map[string][]int64)
	for i := range spans {
		sp := &spans[i]
		if sp.Kind != KindLease {
			continue
		}
		if ev, name := leaseEvent(sp); ev == "invalidate" {
			commits[name] = append(commits[name], sp.Start)
		}
	}
	widest := make(map[string]StaleWindow)
	for i := range spans {
		sp := &spans[i]
		if sp.Kind != KindLease {
			continue
		}
		ev, name := leaseEvent(sp)
		if ev != "hit" && ev != "negative-hit" {
			continue
		}
		for _, ti := range commits[name] {
			if sp.LeaseGrant <= ti && sp.Start > ti {
				w := StaleWindow{Name: name, Commit: ti, Hit: sp.Start, Window: sp.Start - ti}
				if prev, ok := widest[name]; !ok || w.Window > prev.Window {
					widest[name] = w
				}
			}
		}
	}
	names := make([]string, 0, len(widest))
	for n := range widest {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]StaleWindow, 0, len(names))
	for _, n := range names {
		out = append(out, widest[n])
	}
	return out
}

// leaseEvent splits a KindLease span name ("hit [bin]hello") into its
// event and the affected name.
func leaseEvent(sp *Span) (event, name string) {
	ev, rest, _ := strings.Cut(sp.Name, " ")
	return ev, rest
}

// tallyReplies counts successful reply spans in the transaction rooted
// at id, without descending into nested send spans (those are separate
// transactions with their own replies). It also reports whether the
// transaction passed through a group hop (first-reply-wins), which
// relaxes the exactly-one-reply demand to at-least-one.
func tallyReplies(id SpanID, children map[SpanID][]*Span) (replies int, group bool) {
	for _, c := range children[id] {
		if c.Kind == KindSend {
			continue
		}
		if c.Group {
			group = true
		}
		if c.Kind == KindReply && c.Err == "" {
			replies++
		}
		r, g := tallyReplies(c.ID, children)
		replies += r
		group = group || g
	}
	return replies, group
}
