package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/proto"
)

// query sends n QueryObjects of hello.txt to ts from client.
func query(t *testing.T, client *kernel.Process, ts *toyServer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		req := &proto.Message{Op: proto.OpQueryObject}
		proto.SetCSName(req, uint32(CtxDefault), "hello.txt")
		if _, err := Transact(client, ts.srv.PID(), req); err != nil {
			t.Errorf("query %d: %v", i, err)
			return
		}
	}
}

// missing sends n QueryObjects of a name ts does not hold from client,
// each answered NotFound.
func missing(t *testing.T, client *kernel.Process, ts *toyServer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		req := &proto.Message{Op: proto.OpQueryObject}
		proto.SetCSName(req, uint32(CtxDefault), "missing.txt")
		if _, err := Transact(client, ts.srv.PID(), req); !errors.Is(err, proto.ErrNotFound) {
			t.Errorf("query %d of a missing name: %v", i, err)
			return
		}
	}
}

// served reads what reg holds of the toy server's traffic: the kernel's
// send_latency and the server's serve series for QueryObject, and the
// team's handoff counter.
func served(reg *metrics.Registry) (sends, serves, requests, handoffs uint64) {
	s := reg.Snapshot()
	for _, h := range s.Histograms {
		if h.Labels == (metrics.Labels{Server: "toy", Op: "QueryObject"}) {
			switch h.Name {
			case "send_latency":
				sends = h.Count
			case "serve_latency":
				serves = h.Count
			}
		}
	}
	for _, c := range s.Counters {
		switch c.Name {
		case "server_requests_total":
			requests += c.Value
		case "server_handoffs_total":
			handoffs += c.Value
		}
	}
	return sends, serves, requests, handoffs
}

// TestSeriesHandlesFollowRegistry swaps the registry under emitters that
// keep their own series — the target's send_latency, the server's serve
// series and handoff count: removed registry A stops where it stood,
// nothing may panic while there is none, and B counts exactly the traffic
// after its install. A registry that read its emitters past its removal
// fails the first check.
func TestSeriesHandlesFollowRegistry(t *testing.T) {
	k := newDomain()
	ts := startToyTeam(t, k.NewHost("srv"), "toy", 3)
	ts.addObject(CtxDefault, "hello.txt", []byte("hello world"))
	client := newClientProc(t, k.NewHost("ws"))

	a, b := metrics.New(), metrics.New()
	k.SetMetrics(a)
	query(t, client, ts, 5)
	k.SetMetrics(nil)
	query(t, client, ts, 7)
	k.SetMetrics(b)
	query(t, client, ts, 11)
	for _, c := range []struct {
		name string
		reg  *metrics.Registry
		want uint64
	}{{"A", a, 5}, {"B", b, 11}} {
		sends, serves, requests, handoffs := served(c.reg)
		if sends != c.want || serves != c.want || requests != c.want || handoffs != c.want {
			t.Errorf("registry %s: %d sends, %d serves, %d requests, %d handoffs recorded, want %d of each",
				c.name, sends, serves, requests, handoffs, c.want)
		}
	}
}

// TestSeriesHandlesSharedByTeam is the -race leg: three workers record
// into one server's serve series, its failures among them, two clients
// into one target's send_latency, while a fourth goroutine swaps
// registries. Each install takes one reading, the outgoing registry's
// final value and the incoming one's base, so every event lands in
// exactly one registry and the two see all of them.
func TestSeriesHandlesSharedByTeam(t *testing.T) {
	k := newDomain()
	ts := startToyTeam(t, k.NewHost("srv"), "toy", 3)
	ts.addObject(CtxDefault, "hello.txt", []byte("hello world"))
	regs := []*metrics.Registry{metrics.New(), metrics.New()}
	k.SetMetrics(regs[0])

	const clients, each, failing = 2, 200, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				k.SetMetrics(regs[i%2])
			}
		}
	}()
	for c := 0; c < clients; c++ {
		client := newClientProc(t, k.NewHost("ws"))
		wg.Add(1)
		go func() {
			defer wg.Done()
			query(t, client, ts, each)
			missing(t, client, ts, failing)
		}()
	}
	wg.Wait()
	close(stop)
	<-swapped
	var sum [5]uint64
	for _, reg := range regs {
		sends, serves, requests, handoffs := served(reg)
		for i, n := range [5]uint64{sends, serves, requests, handoffs, counted(reg, "toy")["server_failures_total"]} {
			sum[i] += n
		}
	}
	if want := uint64(clients * (each + failing)); sum != [5]uint64{want, want, want, want, clients * failing} {
		t.Fatalf("%d sends, %d serves, %d requests, %d handoffs, %d failures recorded across the two registries, want %d of each and %d failures",
			sum[0], sum[1], sum[2], sum[3], sum[4], want, clients*failing)
	}
}
