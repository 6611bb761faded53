package ncache_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/ncache"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/rig"
)

// bootTiered builds the shared-prefix topology with the lease hierarchy
// and the intermediate tier interposed: every client addresses the tier,
// which holds the upstream leases.
func bootTiered(t *testing.T, lease time.Duration) *rig.Topology {
	t.Helper()
	sw, err := rig.Scenario{
		Kind: rig.SharedPrefix, Shards: 2, ClientsPerShard: 3, Requests: 8, Seed: 11,
		Lease: lease, CacheTier: true,
	}.Boot()
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestTierAmortizesUpstreamLeases drives the tiered workload and checks
// the amortization the tier exists for: every client's first lookup of
// its shard prefix reaches the tier, but only the first per prefix walks
// on to the prefix server — one upstream lease serves all co-tier
// clients.
func TestTierAmortizesUpstreamLeases(t *testing.T) {
	sw := bootTiered(t, 500*time.Millisecond)
	res := rig.RunWorkload(sw.Clients)
	for i, st := range res.Clients {
		if st.Errors != 0 {
			t.Fatalf("client %d: %d errors", i, st.Errors)
		}
	}
	ts := sw.Tier.Stats()
	if ts.Misses != 2 {
		t.Fatalf("tier misses = %d, want one per shard prefix: %+v", ts.Misses, ts)
	}
	if want := uint64(2*3 - 2); ts.Hits != want {
		t.Fatalf("tier hits = %d, want %d (every later client's first lookup): %+v", ts.Hits, want, ts)
	}
	if srv := sw.Prefix.LeaseStats(); srv.Grants != 2 {
		t.Fatalf("upstream grants = %d, want exactly one per prefix: %+v", srv.Grants, srv)
	}
	// Clients never re-walked within the lease window: one miss each,
	// everything else answered by their own lease caches.
	for i, wc := range sw.Clients {
		cs := wc.Session.LeaseCacheStats()
		if cs.Misses != 1 || cs.Hits != wc.Requests-1 {
			t.Fatalf("client %d lease stats: %+v", i, cs)
		}
	}
}

// TestTierSubLeaseBounded checks the hierarchy's staleness contract: the
// sub-lease a client holds never outlives the configured lease length
// from its own grant observation, even though it was cut from an
// upstream lease granted earlier.
func TestTierSubLeaseBounded(t *testing.T) {
	lease := 300 * time.Millisecond
	sw := bootTiered(t, lease)
	rig.RunWorkload(sw.Clients)
	name := "[shard0]" + rig.ShardHotPath
	for i, wc := range sw.Clients[:3] {
		exp, ok := wc.Session.LeaseExpiry(name)
		if !ok {
			t.Fatalf("client %d holds no lease", i)
		}
		if exp > wc.Session.Proc().Now()+lease {
			t.Fatalf("client %d sub-lease expiry %v exceeds now+%v", i, exp, lease)
		}
	}
}

// TestTierInvalidationChain deletes a prefix through the tier and checks
// the full callback chain: the prefix server notifies the tier's
// upstream callback, the tier drops its entry and propagates to every
// downstream holder, and only then does the delete return — all three
// cache levels coherent at the mutation's commit.
func TestTierInvalidationChain(t *testing.T) {
	sw := bootTiered(t, 500*time.Millisecond)
	rig.RunWorkload(sw.Clients)

	proc, err := sw.PrefixHost.NewProcess("admin")
	if err != nil {
		t.Fatal(err)
	}
	admin := client.New(proc, sw.Tier.PID(), sw.Shards[0].RootPair(), "admin")
	if err := admin.DeleteName("shard0"); err != nil {
		t.Fatal(err)
	}

	ts := sw.Tier.Stats()
	if ts.Invalidations != 1 {
		t.Fatalf("tier invalidations = %d: %+v", ts.Invalidations, ts)
	}
	if ts.Propagated != 3 {
		t.Fatalf("tier propagated to %d holders, want the 3 shard0 clients: %+v", ts.Propagated, ts)
	}
	// The delete itself was a non-lease request: forwarded upstream.
	if ts.Forwards != 1 {
		t.Fatalf("tier forwards = %d: %+v", ts.Forwards, ts)
	}
	if srv := sw.Prefix.LeaseStats(); srv.Invalidations != 1 || srv.HoldersNotified != 1 {
		t.Fatalf("upstream lease stats: %+v", srv)
	}
	name := "[shard0]" + rig.ShardHotPath
	for i := 0; i < 3; i++ {
		s := sw.Clients[i].Session
		if s.LeaseCacheStats().Invalidations != 1 {
			t.Fatalf("shard0 client %d not called back: %+v", i, s.LeaseCacheStats())
		}
		if _, ok := s.LeaseExpiry(name); ok {
			t.Fatalf("shard0 client %d still holds the deleted lease", i)
		}
	}
	for i := 3; i < 6; i++ {
		if sw.Clients[i].Session.LeaseCacheStats().Invalidations != 0 {
			t.Fatalf("shard1 client %d wrongly called back", i)
		}
	}
}

// TestTierForwardsEverythingElse: a client with no lease cache behind
// the tier sees the plain protocol unchanged — named requests, unflagged
// bare-prefix maps and prefix-table reads are all forwarded upstream,
// and none of them touches the tier's lease table.
func TestTierForwardsEverythingElse(t *testing.T) {
	sw := bootTiered(t, 500*time.Millisecond)
	proc, err := sw.Hosts[0].NewProcess("plain")
	if err != nil {
		t.Fatal(err)
	}
	s := client.New(proc, sw.Tier.PID(), sw.Shards[0].RootPair(), "plain")
	if _, err := s.Query("[shard0]" + rig.ShardHotPath); err != nil {
		t.Fatal(err)
	}
	if pair, err := s.MapContext("[shard1]"); err != nil || pair != sw.Shards[1].RootPair() {
		t.Fatalf("unflagged map through the tier = %v, %v", pair, err)
	}
	records, err := s.ListPrefixes()
	if err != nil || len(records) != 2 {
		t.Fatalf("prefix table through the tier: %d records, %v", len(records), err)
	}
	if _, err := s.Query("[nosuch]x"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("absent prefix through the tier: %v", err)
	}
	ts := sw.Tier.Stats()
	if ts.Forwards < 4 || ts.Hits+ts.Misses+ts.NegativeHits != 0 {
		t.Fatalf("tier stats %+v, want only forwards", ts)
	}
	if got := sw.Prefix.Stats().Forwards; got != 2 {
		t.Fatalf("prefix server forwarded %d requests, want the query and the map", got)
	}
}

// TestTierLapseAndAbsence: a lapsed tier entry is renewed (a miss that
// the tier also counts as a renewal), and an absent name is held
// negatively — the second client to ask is answered by the tier.
func TestTierLapseAndAbsence(t *testing.T) {
	lease := 100 * time.Millisecond
	sw := bootTiered(t, lease)
	a, b := sw.Clients[0].Session, sw.Clients[1].Session
	name := "[shard0]" + rig.ShardHotPath
	if _, err := a.Query(name); err != nil {
		t.Fatal(err)
	}
	a.Proc().ChargeCompute(2 * lease)
	if _, err := a.Query(name); err != nil {
		t.Fatal(err)
	}
	ts := sw.Tier.Stats()
	if ts.Misses != 2 || ts.Renewals != 1 || ts.Hits != 0 {
		t.Fatalf("tier stats after a lapse %+v, want 2 misses of which 1 renewal", ts)
	}
	if cs := a.LeaseCacheStats(); cs.Misses != 1 || cs.Renewals != 1 {
		t.Fatalf("client stats after a lapse %+v, want 1 miss and 1 renewal", cs)
	}

	b.Proc().ChargeCompute(a.Proc().Now() - b.Proc().Now())
	for _, s := range []*client.Session{a, b} {
		if _, err := s.Query("[nosuch]x"); !errors.Is(err, proto.ErrNotFound) {
			t.Fatalf("absent prefix: %v", err)
		}
	}
	ts = sw.Tier.Stats()
	if ts.NegativeHits != 1 || ts.Misses != 3 {
		t.Fatalf("tier stats after two absent lookups %+v, want 1 negative hit, 3 misses", ts)
	}
	if srv := sw.Prefix.LeaseStats(); srv.Negatives != 1 {
		t.Fatalf("upstream stamped %d negative leases, want 1", srv.Negatives)
	}
	// Both clients hold sub-leases cut from the one negative upstream
	// lease: a repeat is answered without leaving the client.
	if _, err := b.Query("[nosuch]x"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatal(err)
	}
	if cs := b.LeaseCacheStats(); cs.NegativeHits != 1 {
		t.Fatalf("client stats %+v, want the repeat answered locally", cs)
	}
}

// TestTierStop: a stopped tier is gone from both sides — clients fail
// fast instead of hanging, and the upstream server's next invalidation
// finds no holder to wait for.
func TestTierStop(t *testing.T) {
	sw := bootTiered(t, 500*time.Millisecond)
	rig.RunWorkload(sw.Clients)
	sw.Tier.Stop()
	if sw.Kernel.ProcessAlive(sw.Tier.PID()) {
		t.Fatal("tier serving process survived Stop")
	}
	if _, err := sw.Clients[0].Session.Query("[shard1]" + rig.ShardHotPath); !errors.Is(err, kernel.ErrNonexistentProcess) {
		t.Fatalf("lookup through a stopped tier: %v", err)
	}
	proc, err := sw.PrefixHost.NewProcess("admin")
	if err != nil {
		t.Fatal(err)
	}
	admin := client.New(proc, sw.Prefix.PID(), sw.Shards[0].RootPair(), "admin")
	if err := admin.DeleteName("shard0"); err != nil {
		t.Fatal(err)
	}
	if srv := sw.Prefix.LeaseStats(); srv.Invalidations != 1 || srv.HoldersNotified != 0 {
		t.Fatalf("upstream lease stats %+v: the stopped tier's callback must have left its groups", srv)
	}
}

// TestTierNeedsALease: a tier with nothing to grant is a configuration
// error, not a pass-through.
func TestTierNeedsALease(t *testing.T) {
	sw := bootTiered(t, 500*time.Millisecond)
	if _, err := ncache.Start(sw.PrefixHost, "bad", sw.Prefix.PID(), 0); err == nil {
		t.Fatal("Start accepted a zero sub-lease length")
	}
}

// TestTierBeforeLeaselessUpstream: in front of a prefix server that
// grants no leases the tier relays answers unstamped and keeps nothing —
// it will not sub-lease what it cannot be called back about — and the
// client uses each answer once without caching it.
func TestTierBeforeLeaselessUpstream(t *testing.T) {
	sw, err := rig.Scenario{Kind: rig.SharedPrefix, Shards: 1, ClientsPerShard: 1, Requests: 1, Seed: 3}.Boot()
	if err != nil {
		t.Fatal(err)
	}
	tier, err := ncache.Start(sw.PrefixHost, "ncache", sw.Prefix.PID(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Stop()
	proc, err := sw.Hosts[0].NewProcess("leased")
	if err != nil {
		t.Fatal(err)
	}
	s := client.New(proc, tier.PID(), sw.Shards[0].RootPair(), "leased")
	if err := s.EnableLeaseCache(); err != nil {
		t.Fatal(err)
	}
	name := "[shard0]" + rig.ShardHotPath
	for i := 0; i < 3; i++ {
		if _, err := s.Query(name); err != nil {
			t.Fatal(err)
		}
	}
	if ts := tier.Stats(); ts.Misses != 3 || ts.Hits != 0 {
		t.Fatalf("tier stats %+v, want every lookup a miss", ts)
	}
	if cs := s.LeaseCacheStats(); cs.Misses != 3 || cs.Hits != 0 {
		t.Fatalf("client stats %+v, want every lookup a miss", cs)
	}
	if _, ok := s.LeaseExpiry(name); ok {
		t.Fatal("client cached an unstamped answer")
	}
}

// TestTierAnswersInEachClientsRequest: two lanes of clients resolve
// through one tier at once, their sub-leases lapsing so the tier keeps
// walking upstream through its cache's one reused request, and every
// client is answered its own lane's pair in the request it sent — never
// in the tier cache's message. make check runs it under -race at
// GOMAXPROCS=4, where a message shared between lanes is a reported race.
func TestTierAnswersInEachClientsRequest(t *testing.T) {
	const lease, rounds = 20 * time.Millisecond, 100
	sw := bootTiered(t, lease)
	var wg sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		host, want := sw.Hosts[lane], sw.Shards[lane].RootPair()
		name := prefix.Quote(fmt.Sprintf("shard%d", lane))
		cb, err := host.NewProcess("callback") // no mutation runs: never called back
		if err != nil {
			t.Fatal(err)
		}
		var procs []*kernel.Process
		for c := 0; c < 2; c++ {
			p, err := host.NewProcess(fmt.Sprintf("lane%d-client%d", lane, c))
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, p)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := procs[i%len(procs)]
				req := &proto.Message{Op: proto.OpMapContext}
				proto.SetCSName(req, 0, name)
				proto.SetLeaseRequest(req, uint32(cb.PID()))
				reply, err := p.Send(req, sw.Tier.PID())
				if err != nil {
					t.Errorf("%s round %d: %v", p.Name(), i, err)
					return
				}
				pid, ctx := proto.GetMapContextReply(reply)
				if reply != req || reply.Op != proto.ReplyOK || kernel.PID(pid) != want.Server || core.ContextID(ctx) != want.Ctx {
					t.Errorf("%s round %d: reply %+v (its request %p), want %v in the request", p.Name(), i, reply, req, want)
					return
				}
				p.ChargeCompute(lease / 2) // every other round finds the tier's lease lapsed
			}
		}()
	}
	wg.Wait()
	if ts := sw.Tier.Stats(); ts.Misses < rounds/4 || ts.Hits == 0 {
		t.Fatalf("tier stats %+v: want the upstream walked repeatedly beside hits", ts)
	}
}

// TestTierKeepsNoBorrowedName: the tier reads a lease request's prefix
// where it lies in the client's message and keeps a copy in its lease
// table: once the client's next request has overwritten the message, a
// repeat of the first request still finds the tier's entry, and the
// name's deletion still reaches the client through the tier's holder
// group.
func TestTierKeepsNoBorrowedName(t *testing.T) {
	sw := bootTiered(t, time.Second)
	host := sw.Hosts[0]
	p, err := host.NewProcess("borrower")
	if err != nil {
		t.Fatal(err)
	}
	invalidated := make(chan string, 4)
	cb, err := host.NewProcess("borrower-cb")
	if err != nil {
		t.Fatal(err)
	}
	cb.Serve(func(msg *proto.Message, from kernel.PID) {
		if name, _, err := proto.CacheInvalidate(msg); err == nil {
			invalidated <- name
		}
		_ = cb.Reply(proto.NewReply(proto.ReplyOK), from)
	})
	req := &proto.Message{}
	lease := func(name string) *proto.Message {
		t.Helper()
		*req = proto.Message{Op: proto.OpMapContext, Segment: req.Segment[:0]}
		proto.SetCSName(req, 0, name)
		proto.SetLeaseRequest(req, uint32(cb.PID()))
		reply, err := p.Send(req, sw.Tier.PID())
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	if reply := lease("[shard0]"); reply.Op != proto.ReplyOK {
		t.Fatalf("first lease: %v", reply.Op)
	}
	// The same length: the overwrite reuses every byte the first read.
	if reply := lease("[zzzzz0]"); reply.Op != proto.ReplyNotFound {
		t.Fatalf("overwriting lease: %v", reply.Op)
	}
	// The repeat comes in a new message, so nothing restores the bytes
	// the first request's prefix was read from.
	req = &proto.Message{}
	before := sw.Tier.Stats()
	if reply := lease("[shard0]"); reply.Op != proto.ReplyOK {
		t.Fatalf("repeat lease: %v", reply.Op)
	}
	if after := sw.Tier.Stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("repeat lease: tier stats %+v after %+v, want one more hit", after, before)
	}
	proc, err := sw.PrefixHost.NewProcess("admin")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.New(proc, sw.Tier.PID(), sw.Shards[0].RootPair(), "admin").DeleteName("shard0"); err != nil {
		t.Fatal(err)
	}
	select {
	case name := <-invalidated:
		if name != "shard0" {
			t.Fatalf("invalidated %q, want shard0", name)
		}
	default:
		t.Fatal("the redefinition's invalidation did not reach the tier's holder")
	}
}
