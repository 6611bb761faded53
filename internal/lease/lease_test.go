package lease

import (
	"errors"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/namestat"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/raceflag"
	"repro/internal/trace"
	"repro/internal/vtime"
)

const ms = time.Millisecond

// rig is one kernel with a holder process and a scripted upstream: the
// upstream answers every request with answer(req), and records whether
// the last request it saw was lease-flagged.
type rig struct {
	k        *kernel.Kernel
	host     *kernel.Host
	holder   *kernel.Process
	upstream *kernel.Process

	mu      sync.Mutex
	answer  func(req *proto.Message) *proto.Message
	flagged bool
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{k: kernel.New(netsim.New(vtime.DefaultModel(), 1))}
	r.host = r.k.NewHost("ws")
	var err error
	if r.holder, err = r.host.NewProcess("holder"); err != nil {
		t.Fatal(err)
	}
	if r.upstream, err = r.host.NewProcess("upstream"); err != nil {
		t.Fatal(err)
	}
	r.upstream.Serve(func(msg *proto.Message, from kernel.PID) {
		r.mu.Lock()
		_, r.flagged = proto.LeaseRequest(msg)
		reply := r.answer(msg)
		r.mu.Unlock()
		_ = r.upstream.Reply(reply, from)
	})
	t.Cleanup(func() {
		r.holder.Destroy()
		r.upstream.Destroy()
	})
	return r
}

// cache returns a cache on the rig's host, listening for callbacks when
// leased.
func (r *rig) cache(t *testing.T, leased bool, propagate func(*kernel.Process, string, time.Duration)) *Cache {
	t.Helper()
	c := NewCache(NewMeter(r.k, "client", "holder"))
	if leased {
		if err := c.Listen(r.host, "holder/cb", propagate); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
	}
	return c
}

// mapReply builds an upstream answer: op, a pair on ReplyOK, and a lease
// stamp when expire > 0.
func mapReply(op proto.Code, expire time.Duration) *proto.Message {
	m := proto.NewReply(op)
	if op == proto.ReplyOK {
		proto.SetMapContextReply(m, 77, 5)
	}
	if expire > 0 {
		proto.SetLeaseGrant(m, int64(expire))
	}
	return m
}

var pair = core.ContextPair{Server: 77, Ctx: 5}

// TestExpiryBoundary pins the one expiry rule at both probes: an entry
// is valid through Expire−1 and lapsed at Expire exactly, and the
// operational Lookup drops what it finds lapsed.
func TestExpiryBoundary(t *testing.T) {
	r := newRig(t)
	c := r.cache(t, false, nil)
	e := Entry{Pair: pair, Grant: 10 * ms, Expire: 100 * ms}
	c.Store("home", e)

	for _, tc := range []struct {
		at    time.Duration
		valid bool
	}{{e.Expire - 1, true}, {e.Expire, false}, {e.Expire + 1, false}} {
		if got, ok := c.Route("home", tc.at); ok != tc.valid || (ok && got != pair) {
			t.Errorf("Route at %v = %v, %v; want valid=%v", tc.at, got, ok, tc.valid)
		}
	}
	if got, st := c.Lookup(r.holder, "home", e.Expire-1); st != Valid || got != e {
		t.Fatalf("Lookup at Expire-1 = %+v, %v; want a hit", got, st)
	}
	if got, st := c.Lookup(r.holder, "home", e.Expire); st != Expired || got != e {
		t.Fatalf("Lookup at Expire = %+v, %v; want the lapsed entry", got, st)
	}
	if _, ok := c.Peek("home"); ok {
		t.Fatal("lapsed entry survived its Lookup")
	}
	if _, st := c.Lookup(r.holder, "home", e.Expire); st != Absent {
		t.Fatalf("Lookup after the drop = %v, want Absent", st)
	}
	st := c.Snapshot()
	if st[Hit] != 1 || st[Renewal] != 1 || st[Miss] != 1 {
		t.Fatalf("counters %v, want one hit, one renewal, one miss", st)
	}
	// A negative entry never routes, and an unstamped one routes forever.
	c.Store("gone", Entry{Negative: true, Expire: 100 * ms})
	c.Store("plain", Entry{Pair: pair, Expire: Never})
	if _, ok := c.Route("gone", 0); ok {
		t.Error("negative entry routed")
	}
	if _, ok := c.Route("plain", Never-1); !ok {
		t.Error("unstamped entry lapsed")
	}
}

// TestAcquire walks every shape of upstream answer under both policies.
func TestAcquire(t *testing.T) {
	for _, tc := range []struct {
		label    string
		leased   bool
		prior    State
		answer   *proto.Message
		held     bool
		negative bool
		stamped  bool
	}{
		{"stamped OK is a lease", true, Absent, mapReply(proto.ReplyOK, 80*ms), true, false, true},
		{"stamped OK after a lapse is a renewal", true, Expired, mapReply(proto.ReplyOK, 80*ms), true, false, true},
		{"stamped NotFound is a negative lease", true, Absent, mapReply(proto.ReplyNotFound, 80*ms), true, true, true},
		{"unstamped OK is used, not kept, when leases were asked for", true, Absent, mapReply(proto.ReplyOK, 0), false, false, false},
		{"unstamped OK is kept by the plain policy", false, Absent, mapReply(proto.ReplyOK, 0), true, false, false},
		{"unstamped NotFound is nobody's lease", true, Absent, mapReply(proto.ReplyNotFound, 0), false, false, false},
		{"stamped but uncacheable is relayed as-is", true, Absent, mapReply(proto.ReplyNoPermission, 80*ms), false, false, true},
	} {
		t.Run(tc.label, func(t *testing.T) {
			r := newRig(t)
			r.answer = func(*proto.Message) *proto.Message { return tc.answer.Clone() }
			c := r.cache(t, tc.leased, nil)
			e, reply, held, err := c.Acquire(r.holder, r.upstream.PID(), "home", "[home]", tc.prior)
			if err != nil {
				t.Fatal(err)
			}
			if r.flagged != tc.leased {
				t.Errorf("request lease-flagged = %v, want %v", r.flagged, tc.leased)
			}
			if reply.Op != tc.answer.Op {
				t.Errorf("reply %v, want the upstream's %v relayed", reply.Op, tc.answer.Op)
			}
			if held != tc.held || e.Negative != tc.negative || e.Stamped() != tc.stamped {
				t.Fatalf("held=%v entry=%+v; want held=%v negative=%v stamped=%v", held, e, tc.held, tc.negative, tc.stamped)
			}
			if reply.Op == proto.ReplyOK && e.Pair != pair {
				t.Errorf("pair %v, want %v", e.Pair, pair)
			}
			got, ok := c.Peek("home")
			if ok != tc.held || (ok && got != e) {
				t.Fatalf("table holds %+v, %v; want held=%v", got, ok, tc.held)
			}
			st := c.Snapshot()
			wantAcq, wantRen := uint64(0), uint64(0)
			if tc.held && tc.prior == Expired {
				wantRen = 1
			} else if tc.held {
				wantAcq = 1
			}
			if st[Acquired] != wantAcq || st[Renewed] != wantRen {
				t.Errorf("acquired/renewed = %d/%d, want %d/%d", st[Acquired], st[Renewed], wantAcq, wantRen)
			}
		})
	}
}

// TestAcquireSendFailure: an upstream that is gone fails the Acquire
// with the transport error and leaves the table alone.
func TestAcquireSendFailure(t *testing.T) {
	r := newRig(t)
	c := r.cache(t, true, nil)
	dead := r.upstream.PID()
	r.upstream.Destroy()
	_, reply, held, err := c.Acquire(r.holder, dead, "home", "[home]", Absent)
	if !errors.Is(err, kernel.ErrNonexistentProcess) || reply != nil || held {
		t.Fatalf("Acquire from a dead server = %v, held=%v, err=%v", reply, held, err)
	}
	if _, ok := c.Peek("home"); ok {
		t.Fatal("failed Acquire stored an entry")
	}
}

// TestNegativeEntry: a negative lease answers locally (no upstream
// traffic) until the define's invalidation drops it.
func TestNegativeEntry(t *testing.T) {
	r := newRig(t)
	asked := 0
	r.answer = func(*proto.Message) *proto.Message {
		asked++
		return mapReply(proto.ReplyNotFound, 80*ms)
	}
	c := r.cache(t, true, nil)
	if _, _, held, err := c.Acquire(r.holder, r.upstream.PID(), "nosuch", "[nosuch]", Absent); err != nil || !held {
		t.Fatalf("negative lease not held: %v", err)
	}
	for i := 0; i < 3; i++ {
		if e, st := c.Lookup(r.holder, "nosuch", r.holder.Now()); st != Valid || !e.Negative {
			t.Fatalf("lookup %d = %+v, %v; want a negative hit", i, e, st)
		}
	}
	if asked != 1 || c.Snapshot()[NegativeHit] != 3 {
		t.Fatalf("upstream asked %d times, %d negative hits; want 1 and 3", asked, c.Snapshot()[NegativeHit])
	}
	inv := &proto.Message{}
	proto.SetCacheInvalidate(inv, "nosuch", int64(r.holder.Now()))
	if reply, err := r.holder.Send(inv, c.Callback()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("invalidation: %v, %v", reply, err)
	}
	if _, st := c.Lookup(r.holder, "nosuch", r.holder.Now()); st != Absent {
		t.Fatalf("negative entry survived the define's invalidation: %v", st)
	}
}

// TestCallback: the callback process applies a well-formed invalidation
// (running the propagate hook before it acknowledges), and refuses a
// malformed one and a foreign op without touching the table.
func TestCallback(t *testing.T) {
	r := newRig(t)
	var propagated []string
	c := r.cache(t, true, func(_ *kernel.Process, name string, commit time.Duration) {
		propagated = append(propagated, name+"@"+commit.String())
	})
	c.Store("home", Entry{Pair: pair, Expire: 100 * ms})

	malformed := &proto.Message{Op: proto.OpCacheInvalidate}
	malformed.F[2] = 9 // claims a 9-byte name in an empty segment
	valid := &proto.Message{}
	proto.SetCacheInvalidate(valid, "home", int64(7*ms))
	for _, tc := range []struct {
		label string
		msg   *proto.Message
		want  proto.Code
		left  bool
	}{
		{"malformed invalidate", malformed, proto.ReplyBadArgs, true},
		{"foreign op", &proto.Message{Op: proto.OpQueryObject}, proto.ReplyIllegalRequest, true},
		{"invalidate", valid, proto.ReplyOK, false},
	} {
		reply, err := r.holder.Send(tc.msg, c.Callback())
		if err != nil || reply.Op != tc.want {
			t.Fatalf("%s: reply %v, %v; want %v", tc.label, reply, err, tc.want)
		}
		if _, ok := c.Peek("home"); ok != tc.left {
			t.Fatalf("%s: entry present = %v, want %v", tc.label, ok, tc.left)
		}
	}
	if len(propagated) != 1 || propagated[0] != "home@7ms" {
		t.Fatalf("propagate hook saw %v, want one call for home@7ms", propagated)
	}
	if n := c.Snapshot()[Invalidation]; n != 1 {
		t.Fatalf("%d invalidations counted, want 1", n)
	}
}

// TestGrantBoundedByUpstream: a sub-lease never outlives the lease that
// backs it, and the authority (upstream Never) grants its full length.
func TestGrantBoundedByUpstream(t *testing.T) {
	for _, tc := range []struct{ now, length, upstream, want time.Duration }{
		{10 * ms, 50 * ms, Never, 60 * ms},
		{10 * ms, 50 * ms, 200 * ms, 60 * ms},
		{10 * ms, 50 * ms, 60 * ms, 60 * ms},
		{10 * ms, 50 * ms, 59 * ms, 59 * ms},
		{10 * ms, 50 * ms, 11 * ms, 11 * ms},
	} {
		reply := proto.NewReply(proto.ReplyOK)
		got := Grant(reply, tc.now, tc.length, tc.upstream)
		stamp, ok := proto.LeaseGrant(reply)
		if got != tc.want || !ok || time.Duration(stamp) != got {
			t.Errorf("Grant(now=%v, len=%v, upstream=%v) = %v (stamp %v, %v), want %v",
				tc.now, tc.length, tc.upstream, got, time.Duration(stamp), ok, tc.want)
		}
		if got > tc.upstream {
			t.Errorf("grant %v outlives its upstream lease %v", got, tc.upstream)
		}
	}
}

// TestWanted: only a lease-flagged MapContext of a bare prefix is a
// request a granter answers from its own table.
func TestWanted(t *testing.T) {
	mk := func(op proto.Code, flag bool) *proto.Message {
		m := &proto.Message{Op: op}
		if flag {
			proto.SetLeaseRequest(m, 42)
		}
		return m
	}
	for _, tc := range []struct {
		label string
		msg   *proto.Message
		name  string
		rest  int
		want  bool
	}{
		{"flagged bare-prefix MapContext", mk(proto.OpMapContext, true), "[home]", 6, true},
		{"unflagged", mk(proto.OpMapContext, false), "[home]", 6, false},
		{"name continues past the prefix", mk(proto.OpMapContext, true), "[home]x", 6, false},
		{"another op", mk(proto.OpQueryObject, true), "[home]", 6, false},
	} {
		cb, ok := Wanted(tc.msg, tc.name, tc.rest)
		if ok != tc.want || (ok && cb != 42) {
			t.Errorf("%s: Wanted = %v, %v; want %v", tc.label, cb, ok, tc.want)
		}
	}
}

// TestHolders: invalidating a name nobody holds is a no-op; with holders
// it is a barrier — every live holder has dropped the name when it
// returns, the sketch taking its fan-out — and a holder that died is
// skipped, not waited for.
func TestHolders(t *testing.T) {
	r := newRig(t)
	h := NewHolders(NewMeter(r.k, "tier", "granter"))
	if n := h.Invalidate(r.holder, "home", 0); n != 0 {
		t.Fatalf("invalidate with no group notified %d", n)
	}
	var caches []*Cache
	for i := 0; i < 3; i++ {
		c := NewCache(NewMeter(r.k, "client", "holder"))
		if err := c.Listen(r.host, "cb"+string(rune('0'+i)), nil); err != nil {
			t.Fatal(err)
		}
		c.Store("home", Entry{Pair: pair, Expire: 100 * ms})
		h.Join(r.k, &Borrowed{Name: "home"}, c.Callback())
		h.Join(r.k, &Borrowed{Name: "home"}, c.Callback()) // idempotent
		caches = append(caches, c)
	}
	caches[2].Close()
	h.Names = namestat.NewTopK(4)
	h.Names.Observe("home")
	if n := h.Invalidate(r.holder, "home", 5*ms); n != 2 {
		t.Fatalf("invalidate notified %d holders, want the 2 alive", n)
	}
	if rates := h.Names.Rates(); rates[0].Invalidations != 1 || rates[0].FanoutMilli != 2000 {
		t.Fatalf("sketch %+v, want one invalidation of fan-out 2", rates[0])
	}
	for i, c := range caches[:2] {
		if _, ok := c.Peek("home"); ok {
			t.Errorf("holder %d kept the name past the barrier", i)
		}
		c.Close()
	}
	if n := h.Snapshot()[Notified]; n != 2 {
		t.Fatalf("notified counter %d, want 2", n)
	}
	if n := h.Invalidate(r.holder, "other", 0); n != 0 {
		t.Fatalf("invalidate of an unheld name notified %d", n)
	}
}

// TestObserveFanOut: one Observe of each table row reaches what the
// row names and nothing else — its counter and series (labelled
// {server} for the prefix server's own rows, {server, class} for the
// lease family), its flight record, its lease span and its sketch
// estimator — and an unstamped entry, having no lease to carry, leaves
// no lease span. The events have no open parent, so each is a subtree of
// its own that retires as it is recorded: a sampled tracer must keep its
// stamp too.
func TestObserveFanOut(t *testing.T) {
	type want struct {
		metric string
		class  bool // series labelled {server, class}, not {server}
		kind   flight.Kind
		detail string
		span   string // lease span name; "" records none
		stamp  bool   // the span carries the entry's stamp
		tick   string // the sketch estimator ticked; "" none
	}
	wants := [numEvents]want{
		Hit:             {metric: "lease_hits_total", class: true, span: "hit", stamp: true},
		NegativeHit:     {metric: "lease_negative_hits_total", class: true, span: "negative-hit", stamp: true},
		Miss:            {metric: "lease_misses_total", class: true},
		Renewal:         {metric: "lease_renewals_total", class: true, kind: flight.KindLeaseRenew, detail: "expired", span: "expired", stamp: true},
		Acquired:        {metric: "lease_acquired_total", class: true, span: "grant", stamp: true},
		Renewed:         {metric: "lease_renewed_total", class: true, span: "renew", stamp: true},
		Invalidation:    {metric: "lease_invalidations_total", class: true, kind: flight.KindInvalidate, detail: "callback", span: "callback"},
		Stale:           {metric: "lease_stale_total", class: true, kind: flight.KindFailover, detail: "stale"},
		Granted:         {metric: "lease_grants_total", class: true, kind: flight.KindLeaseGrant, span: "grant", stamp: true},
		Regranted:       {metric: "lease_regrants_total", class: true, kind: flight.KindLeaseRenew, span: "grant", stamp: true, tick: "renewal"},
		GrantedNegative: {metric: "lease_negative_grants_total", class: true, kind: flight.KindLeaseGrant, detail: "negative", span: "grant", stamp: true},
		Commit:          {metric: "lease_commits_total", class: true, span: "invalidate"},
		Notified:        {metric: "lease_holders_notified_total", class: true},
		Resolved:        {kind: flight.KindResolution, tick: "resolution"},
		Forwarded:       {metric: "prefix_forwards_total", kind: flight.KindForward},
		DeadTarget:      {metric: "prefix_dead_targets_total", kind: flight.KindFailover, detail: "dead-target"},
		Rebound:         {metric: "prefix_rebinds_total", kind: flight.KindFailover, detail: "rebind"},
		Redefined:       {kind: flight.KindRedefine, tick: "redefinition"},
	}
	for _, tr := range []*trace.Tracer{trace.New(), trace.NewSampled(trace.SampleConfig{HeadEvery: 1})} {
		r := newRig(t)
		reg, fl := metrics.New(), flight.New(4*int(numEvents))
		r.k.SetMetrics(reg)
		r.k.SetTracer(tr)
		r.k.SetFlight(fl)
		m := NewMeter(r.k, "prefix", "granter")
		m.Names = namestat.NewTopK(2 * int(numEvents))
		counters := func() map[string]uint64 {
			out := map[string]uint64{}
			for _, c := range reg.Snapshot().Counters {
				out[c.Name+"{"+c.Labels.Server+","+c.Labels.Class+"}"] = c.Value
			}
			return out
		}
		spans := func() (out []trace.Span) {
			for _, sp := range tr.Snapshot() {
				if sp.Kind == trace.KindLease {
					out = append(out, sp)
				}
			}
			return out
		}
		ticks := func(name string) (out []string) {
			for _, it := range m.Names.Rates() {
				if it.Name != name {
					continue
				}
				for _, e := range []struct {
					est string
					n   uint64
				}{{"resolution", it.Resolutions}, {"renewal", it.Renewals}, {"redefinition", it.Redefinitions}} {
					for range e.n {
						out = append(out, e.est)
					}
				}
			}
			return out
		}
		for ev := Event(0); ev < numEvents; ev++ {
			w := wants[ev]
			name := "n" + strconv.Itoa(int(ev))
			m.Names.Observe(name) // held, so a churn event ticks it
			at := time.Duration(ev+1) * ms
			before, journal, spanN := counters(), len(fl.Journal()), len(spans())
			m.Observe(r.holder, ev, name, at, Entry{Pair: pair, Grant: at - ms, Expire: at + 100*ms})
			m.Observe(r.holder, ev, name, at, Entry{Pair: pair, Grant: at - ms, Expire: Never})

			after := counters()
			moved := []string{}
			for k, v := range after {
				if v != before[k] {
					moved = append(moved, k+"+"+strconv.FormatUint(v-before[k], 10))
				}
			}
			wantMoved := []string{}
			if w.metric != "" {
				class := ""
				if w.class {
					class = "prefix"
				}
				wantMoved = append(wantMoved, w.metric+"{granter,"+class+"}+2")
			}
			if !slices.Equal(moved, wantMoved) || m.Snapshot()[ev] != uint64(len(wantMoved))*2 {
				t.Errorf("event %d: series moved %v, meter counts %d; want %v", ev, moved, m.Snapshot()[ev], wantMoved)
			}

			j := fl.Journal()[journal:]
			if w.kind == 0 && len(j) != 0 {
				t.Errorf("event %d: flight records %+v, want none", ev, j)
			}
			for _, e := range j {
				if w.kind == 0 || e.Kind != w.kind || e.Detail != w.detail || e.Name != name || e.Proc != "granter" || e.At != at {
					t.Errorf("event %d: flight record %+v, want kind %v detail %q by granter", ev, e, w.kind, w.detail)
				}
			}
			if w.kind != 0 && len(j) != 2 {
				t.Errorf("event %d: %d flight records, want 2", ev, len(j))
			}

			sp := spans()[spanN:]
			wantSpans := 0
			switch {
			case w.span != "" && w.stamp:
				wantSpans = 1 // the unstamped entry has no lease to carry
			case w.span != "":
				wantSpans = 2
			}
			if len(sp) != wantSpans {
				t.Errorf("event %d: %d lease spans, want %d", ev, len(sp), wantSpans)
			}
			for _, s := range sp {
				if s.Name != w.span+" "+name {
					t.Errorf("event %d: lease span %q, want %q", ev, s.Name, w.span+" "+name)
				}
				if w.stamp && (s.LeaseGrant != int64(at-ms) || s.LeaseExpire != int64(at+100*ms)) {
					t.Errorf("event %d: span stamp %d..%d", ev, s.LeaseGrant, s.LeaseExpire)
				}
			}

			wantTicks := []string{}
			if w.tick != "" {
				wantTicks = []string{w.tick, w.tick}
			}
			if got := ticks(name); !slices.Equal(got, wantTicks) {
				t.Errorf("event %d: sketch ticked %v, want %v", ev, got, wantTicks)
			}
		}
	}
}

// TestFlushKeepsLeases: Flush drops exactly the entries no server will
// call back about, and a classifier probing concurrently never sees a
// torn table (run under -race).
func TestFlushKeepsLeases(t *testing.T) {
	r := newRig(t)
	c := r.cache(t, false, nil)
	c.Store("leased", Entry{Pair: pair, Expire: 100 * ms})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got, ok := c.Route("leased", 1); !ok || got != pair {
				t.Errorf("probe lost the leased entry during a flush: %v, %v", got, ok)
				return
			}
			if got, ok := c.Route("plain7", 1); ok && got != pair {
				t.Errorf("probe read a torn entry: %v", got)
				return
			}
		}
	}()
	for round := 0; round < 200; round++ {
		for i := 0; i < 10; i++ {
			c.Store("plain"+string(rune('0'+i)), Entry{Pair: pair, Expire: Never})
		}
		c.Flush()
	}
	close(stop)
	wg.Wait()
	if _, ok := c.Peek("plain7"); ok {
		t.Fatal("Flush kept an unstamped entry")
	}
	if _, ok := c.Peek("leased"); !ok {
		t.Fatal("Flush dropped a leased entry")
	}
}

// TestStoreHeldNameZeroAlloc is the gate on the holder table's contract:
// it is an exact-match table, so putting a fresh lease on a name it holds
// — every renewal, every rebind — overwrites the entry where it lies and
// allocates nothing. Skipped under -race (the detector's instrumentation
// allocates).
func TestStoreHeldNameZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	c := NewCache(NewMeter(kernel.New(netsim.New(vtime.DefaultModel(), 1)), "client", "holder"))
	names := make([]string, 1000)
	for i := range names {
		names[i] = "proj.user" + strconv.Itoa(i) + ".src"
		c.Store(names[i], Entry{Pair: pair, Expire: 100 * ms})
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		c.Store(names[i%len(names)], Entry{Pair: pair, Grant: time.Duration(i), Expire: 200 * ms})
		i++
	})
	if allocs != 0 {
		t.Fatalf("re-storing a held name allocates %v allocs/op, want 0", allocs)
	}
}

// TestIdleMetersOfferNothing: a meter that has counted nothing offers a
// reading no row, so a registry snapshot costs as much with sixteen idle
// client meters as with none. Skipped under -race (the detector's
// instrumentation allocates).
func TestIdleMetersOfferNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	snapshot := func(meters int) float64 {
		k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
		reg := metrics.New()
		k.SetMetrics(reg)
		for i := range meters {
			NewMeter(k, "client", "holder"+strconv.Itoa(i))
		}
		return testing.AllocsPerRun(100, func() { reg.Snapshot() })
	}
	if idle, none := snapshot(16), snapshot(0); idle != none {
		t.Fatalf("a snapshot with 16 idle meters allocates %v, with none %v", idle, none)
	}
}

// TestCallbacksRaceTheHolder runs the table's three users at once, as a
// sharded run does: the serving goroutine looking names up and storing
// fresh leases, an engine classifier probing routes, and the callback
// process dropping names a granter invalidates. Every probe must read a
// whole entry or none, and every callback must be applied and counted.
// Run under -race this is the table's locking test.
func TestCallbacksRaceTheHolder(t *testing.T) {
	r := newRig(t)
	c := r.cache(t, true, nil)
	granter, err := r.host.NewProcess("granter")
	if err != nil {
		t.Fatal(err)
	}
	defer granter.Destroy()
	names := []string{"home", "pub", "mail", "src"}
	const rounds = 500

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // the granter: one invalidation after another
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rounds; i++ {
			msg := &proto.Message{}
			proto.SetCacheInvalidate(msg, names[i%len(names)], int64(i))
			if reply, err := granter.Send(msg, c.Callback()); err != nil || reply.Op != proto.ReplyOK {
				t.Errorf("callback %d: reply %v, err %v", i, reply, err)
				return
			}
		}
	}()
	go func() { // the classifier
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if got, ok := c.Route(names[i%len(names)], 1); ok && got != pair {
				t.Errorf("classifier read a torn entry: %v", got)
				return
			}
		}
	}()
	for i := 0; ; i++ { // the serving goroutine
		select {
		case <-stop:
			wg.Wait()
			if st := c.Snapshot(); st[Invalidation] != rounds {
				t.Fatalf("%d of %d callbacks counted", st[Invalidation], rounds)
			}
			return
		default:
		}
		name := names[i%len(names)]
		if e, state := c.Lookup(r.holder, name, 1); state == Valid && e.Pair != pair {
			t.Fatalf("Lookup read a torn entry: %+v", e)
		} else if state != Valid {
			c.Store(name, Entry{Pair: pair, Expire: 100 * ms})
		}
	}
}

// TestCallbackAnswersInItsClone: a holder acknowledges an invalidation in
// the message it was sent — under a group send its own clone — so a
// Notify allocates per holder what the multicast does (the envelope, the
// clone and its segment) and the name the holder decodes, but no reply.
func TestCallbackAnswersInItsClone(t *testing.T) {
	r := newRig(t)
	c := r.cache(t, true, nil)
	msg := &proto.Message{}
	proto.SetCacheInvalidate(msg, "home", 0)
	if reply, err := r.holder.Send(msg, c.Callback()); err != nil || reply != msg || reply.Op != proto.ReplyOK {
		t.Fatalf("callback reply %+v, %v; want ReplyOK in the request %p", reply, err, msg)
	}
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	notify := func(holders int) float64 {
		gid, err := r.k.CreateGroup()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < holders; i++ {
			h := NewCache(NewMeter(r.k, "client", "holder"))
			if err := h.Listen(r.host, "cb"+strconv.Itoa(i), nil); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(h.Close)
			if err := r.k.JoinGroup(gid, h.Callback()); err != nil {
				t.Fatal(err)
			}
		}
		m := NewMeter(r.k, "prefix", "granter")
		return testing.AllocsPerRun(100, func() {
			if n := m.Notify(r.holder, gid, "home", 0); n != holders {
				t.Fatalf("%d of %d holders acknowledged", n, holders)
			}
		})
	}
	one, nine := notify(1), notify(9)
	if perHolder := (nine - one) / 8; perHolder != 4 {
		t.Fatalf("Notify allocates %v per holder (1 holder %v, 9 holders %v), want 4: envelope, clone, segment, name", perHolder, one, nine)
	}
}
