// Multi-client closed-loop workload driver.
//
// The driver models N concurrent clients against the rig's servers while
// keeping every run bit-for-bit reproducible: clients issue requests one
// at a time in real execution, stepped in virtual-time order, so there
// are no goroutine races in the driver, while the per-process virtual
// clocks let a server team's workers overlap service in virtual time
// (the §3.1 concurrency this repo's A11 experiment measures).
//
// RunWorkloadEngine extends this to real concurrency: clients are
// partitioned into lanes, the lanes are folded onto at most GOMAXPROCS
// goroutines, each running the same deterministic virtual-time-ordered
// loop, synchronized by the conservative engine (internal/engine, PROTOCOL.md
// §12). Operations that touch execution-order-sensitive substrate state
// (the shared-wire ledger, the loss RNG, a server another lane also
// talks to) commit in global key order — exactly the sequential
// driver's order — while lane-confined operations run ahead freely, so
// the result is deeply equal to RunWorkload's on any topology, not just
// substrate-disjoint ones.
package rig

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
)

// WorkloadClient is one closed-loop client: it issues Requests
// iterations of Op back to back, modelling a program in a closed loop
// against the servers.
type WorkloadClient struct {
	// Session is the client's naming session; its process clock is the
	// client's time base.
	Session *client.Session
	// Op performs one request cycle; iter counts from 0.
	Op func(s *client.Session, iter int) error
	// Requests is the client's quota of Op iterations.
	Requests int
	// Arrive, when non-nil, makes the client open-loop: iteration iter
	// is not eligible to start before the absolute virtual time
	// Arrive(iter), independent of when earlier operations completed —
	// arrivals model offered load, not a closed think loop, so queueing
	// delay shows up in observed latency instead of throttling the
	// arrival process. The driver advances the client's clock to the
	// arrival time before Op when the client is idle at arrival.
	// Arrive must be non-decreasing in iter (the drivers' pick-min order
	// and the engine's non-decreasing key promise depend on it). Nil
	// preserves the closed-loop behavior exactly.
	Arrive func(iter int) time.Duration
	// Lane assigns the client to a parallel execution lane
	// (RunWorkloadEngine). Clients in the same lane are stepped
	// sequentially in virtual-time order relative to each other; the
	// lanes run on at most GOMAXPROCS goroutines, lane li on goroutine
	// li mod GOMAXPROCS, so distinct lanes may share one. The sequential
	// driver ignores it.
	Lane int
	// Classify, when non-nil, classifies the client's next operation for
	// the conservative engine before it runs: engine.Confined operations
	// touch only lane-local substrate state (plus order-independent
	// atomics) and run ahead of other lanes; engine.Shared operations
	// commit in global virtual-time order. Nil means every operation is
	// Shared — always safe, fully serialized. The sequential driver
	// ignores it, and so does an engine run folded onto one goroutine.
	Classify func(s *client.Session, iter int) engine.Class
}

// ClientStats reports one client's outcome.
type ClientStats struct {
	Completed int
	Errors    int
	// TotalLatency is the sum of per-iteration virtual latencies
	// (excluding think time).
	TotalLatency time.Duration
	// Finish is the client's virtual clock after its last iteration.
	Finish time.Duration
}

// MeanLatency returns the average per-request virtual latency.
func (c ClientStats) MeanLatency() time.Duration {
	if c.Completed == 0 {
		return 0
	}
	return c.TotalLatency / time.Duration(c.Completed)
}

// WorkloadResult is the outcome of a RunWorkload call.
type WorkloadResult struct {
	Clients  []ClientStats
	Requests int
	// Makespan is the virtual time from the earliest client start to the
	// latest client finish.
	Makespan time.Duration
}

// Throughput returns aggregate requests per virtual second.
func (w *WorkloadResult) Throughput() float64 {
	if w.Makespan <= 0 {
		return 0
	}
	return float64(w.Requests) / w.Makespan.Seconds()
}

// RunWorkload drives the clients as a deterministic closed loop: at each
// step the unfinished client with the smallest virtual clock (ties
// broken by lowest index) issues its next request and runs it to
// completion. Real execution is strictly sequential — one request in
// flight at a time — so runs are reproducible; concurrency is modelled
// in virtual time, where a later client's request reaches the server at
// its own (earlier or overlapping) virtual arrival and a server team's
// per-worker clocks overlap service where a single-process server's one
// clock serializes it.
func RunWorkload(clients []*WorkloadClient) *WorkloadResult {
	res := &WorkloadResult{Clients: make([]ClientStats, len(clients))}
	start := workloadStart(clients)
	all := make([]int, len(clients))
	for i := range clients {
		all[i] = i
	}
	res.Requests = runLane(clients, all, res.Clients, nil, 0, false)
	finishResult(res, start)
	return res
}

// EngineOptions parameterizes RunWorkloadEngine.
type EngineOptions struct {
	// Fences is the global fence schedule fired at quiescent cuts
	// between operations; rig.Run wires a scenario's chaos events and
	// flight seals (ChaosFences, SealFlightAtFences).
	Fences engine.Fences
}

// RunWorkloadEngine is the conservative-engine driver with explicit
// options. The lanes are folded onto at most GOMAXPROCS goroutines
// (partitionLanes); each goroutine is one engine lane owning its clients'
// virtual clocks and run queue, and before every operation it gates on
// the shared Sync with the operation's key (virtual start time, client
// index) and class. See internal/engine and PROTOCOL.md §12 for the
// protocol and the equivalence argument.
func RunWorkloadEngine(clients []*WorkloadClient, opts EngineOptions) *WorkloadResult {
	res := &WorkloadResult{Clients: make([]ClientStats, len(clients))}
	if len(clients) == 0 {
		return res
	}
	start := workloadStart(clients)
	// The conservative lookahead bound is the clients' own network's
	// (netsim.Network.Lookahead).
	lookahead := clients[0].Session.Proc().Kernel().Network().Lookahead()
	lanes := partitionLanes(clients, runtime.GOMAXPROCS(0))
	es := engine.NewSync(len(lanes), lookahead, opts.Fences)
	peers := len(lanes) > 1

	var wg sync.WaitGroup
	var requests atomic.Int64
	for laneID, idxs := range lanes {
		wg.Add(1)
		go func(laneID int, idxs []int) {
			defer wg.Done()
			requests.Add(int64(runLane(clients, idxs, res.Clients, es, laneID, peers)))
		}(laneID, idxs)
	}
	wg.Wait()
	res.Requests = int(requests.Load())
	finishResult(res, start)
	return res
}

// partitionLanes splits clients into lanes by their Lane field, numbered
// li in first-appearance order, and folds them onto at most p
// goroutines: lane li joins goroutine li mod p. Clients are visited in
// ascending index, so each goroutine steps the union of its lanes'
// clients in global index order and the pick-min tie-break stays
// Key.Seq. A folded goroutine runs its clients in global key order, a
// refinement of the lanes it holds; a Confined operation touches only
// its own shard's substrate, which still belongs to exactly one
// goroutine.
func partitionLanes(clients []*WorkloadClient, p int) [][]int {
	laneOf := make(map[int]int)
	var lanes [][]int
	for i, c := range clients {
		li, ok := laneOf[c.Lane]
		if !ok {
			li = len(laneOf)
			laneOf[c.Lane] = li
		}
		g := li % p
		if g == len(lanes) {
			lanes = append(lanes, nil)
		}
		lanes[g] = append(lanes[g], i)
	}
	return lanes
}

// effectiveStart is the virtual time client c's iteration iter can
// start: its clock, or its open-loop arrival time if that is later.
func effectiveStart(c *WorkloadClient, iter int) time.Duration {
	now := c.Session.Proc().Now()
	if c.Arrive != nil {
		if arr := c.Arrive(iter); arr > now {
			return arr
		}
	}
	return now
}

// waitForArrival advances an idle open-loop client's clock to the picked
// operation's effective start, so Op (and the classifier, and the
// engine key) all see the arrival instant as "now".
func waitForArrival(c *WorkloadClient, start time.Duration) {
	if c.Arrive == nil {
		return
	}
	if proc := c.Session.Proc(); start > proc.Now() {
		proc.ChargeCompute(start - proc.Now())
	}
}

// workloadStart is the earliest client clock — the makespan origin.
func workloadStart(clients []*WorkloadClient) time.Duration {
	var start time.Duration
	for i, c := range clients {
		now := c.Session.Proc().Now()
		if i == 0 || now < start {
			start = now
		}
	}
	return start
}

// finishResult computes the makespan from the per-client finish times.
func finishResult(res *WorkloadResult, start time.Duration) {
	for _, st := range res.Clients {
		if st.Finish-start > res.Makespan {
			res.Makespan = st.Finish - start
		}
	}
}

// runLane steps the clients selected by idxs with the deterministic
// closed loop: the unfinished client with the smallest virtual clock
// (ties broken by lowest position in idxs) issues its next request and
// runs it to completion. out is indexed by original client index; the
// lane writes only its own clients' slots. Returns the number of
// requests issued.
//
// With es nil this is the ungated sequential reference. With es set every
// operation is gated through the conservative engine: the lane publishes
// the picked operation's key (its client's pre-think clock, the same
// instant the pick compared, plus the client's global index as the
// deterministic tie-break) and its class, and blocks until the engine
// clears it. The pick-min loop makes successive keys non-decreasing,
// which is what lets the published key stand as the lane's promise of no
// earlier future activity. Virtual-time observers are pumped by the
// engine's fences (EngineOptions): a per-op pump would observe
// nondeterministic lane interleavings. peers reports whether the Sync has
// another lane; without one there is nothing to run ahead of, so no op is
// classified.
func runLane(clients []*WorkloadClient, idxs []int, out []ClientStats, es *engine.Sync, lane int, peers bool) int {
	iters := make([]int, len(idxs))
	requests := 0
	for {
		pick := -1
		var best time.Duration
		for j, i := range idxs {
			c := clients[i]
			if iters[j] >= c.Requests {
				continue
			}
			now := effectiveStart(c, iters[j])
			if pick == -1 || now < best {
				pick, best = j, now
			}
		}
		if pick == -1 {
			break
		}
		i := idxs[pick]
		c := clients[i]
		waitForArrival(c, best)
		if es != nil {
			gate(es, lane, engine.Key{T: best, Seq: i}, c, iters[pick], peers)
		}
		before := c.Session.Proc().Now()
		err := c.Op(c.Session, iters[pick])
		after := c.Session.Proc().Now()
		st := &out[i]
		if err != nil {
			st.Errors++
		} else {
			st.Completed++
		}
		st.TotalLatency += after - before
		st.Finish = after
		iters[pick]++
		requests++
	}
	if es != nil {
		es.Done(lane)
	}
	return requests
}

// gate classifies client c's iteration iter and blocks until the engine
// clears it at key. Without peers it gates Shared unclassified: a lone
// lane's Shared gate never waits, so a Confined proof would decide nothing.
func gate(es *engine.Sync, lane int, key engine.Key, c *WorkloadClient, iter int, peers bool) {
	if c.Classify == nil || !peers {
		es.Gate(lane, key, engine.Shared)
		return
	}
	fseen := es.FencesFired()
	cls := c.Classify(c.Session, iter)
	fired := es.Gate(lane, key, cls)
	if cls == engine.Confined && fired != fseen {
		// A fence fired between classification and clearance. Fence
		// actions mutate cross-lane substrate at the quiescent cut —
		// a chaos redefinition revokes leases by callback barrier —
		// so the Confined proof may no longer hold. Re-prove it; if
		// the operation now needs the shared wire, re-gate it Shared
		// so it commits in global key order instead of racing the
		// other woken lanes for wire slots (PROTOCOL.md §12).
		if c.Classify(c.Session, iter) == engine.Shared {
			es.Gate(lane, key, engine.Shared)
		}
	}
}
