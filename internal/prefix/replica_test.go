package prefix

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/replica"
	"repro/internal/vtime"
)

// startReplicatedPrefix boots an n-member prefix replication group (each
// member a New-built server whose serving process is its replica front)
// plus a client process.
func startReplicatedPrefix(t *testing.T, n int) (*replica.Group, []*Server, []*replica.Replica, *kernel.Process) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	g, err := replica.NewGroup(k.NewHost("mon"), replica.Config{Name: "prefix", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srvs := make([]*Server, n)
	reps := make([]*replica.Replica, n)
	for i := 0; i < n; i++ {
		host := k.NewHost(string(rune('a' + i)))
		rep, err := replica.Start(host, "front", func(p *kernel.Process) replica.Service {
			srv := New(p, "mann")
			srvs[i] = srv
			return NewReplicaService(srv)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(host.Name(), rep); err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if err := g.Bootstrap(0); err != nil {
		t.Fatal(err)
	}
	client, err := k.NewHost("ws").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	return g, srvs, reps, client
}

// TestReplicatedPrefixTable drives the read-only prefix front: a change
// to the member's own table is refused on leader and follower alike,
// while bracketed requests and reads are served by any member's table.
func TestReplicatedPrefixTable(t *testing.T) {
	g, srvs, reps, client := startReplicatedPrefix(t, 3)
	want := map[string]Binding{
		"storage": {Pair: core.ContextPair{Server: 42, Ctx: 7}},
		"bin":     {Dynamic: true, Service: kernel.ServiceStorage, WellKnown: core.CtxStdPrograms},
	}
	for _, s := range srvs {
		if err := s.Define("storage", want["storage"].Pair); err != nil {
			t.Fatal(err)
		}
		if err := s.DefineDynamic("bin", kernel.ServiceStorage, core.CtxStdPrograms); err != nil {
			t.Fatal(err)
		}
	}
	var safety replica.Safety
	if err := safety.Check(g); err != nil {
		t.Fatal(err)
	}

	add := &proto.Message{Op: proto.OpAddContextName}
	proto.SetCSName(add, 0, "scratch")
	proto.SetAddContextTarget(add, 42, 8)
	del := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del, 0, "storage")
	write := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(write, 0, "")
	proto.SetOpenMode(write, proto.ModeDirectory|proto.ModeRead|proto.ModeWrite)
	for _, rep := range reps[:2] {
		for _, req := range []*proto.Message{add, del, write} {
			r, err := client.Send(req.Clone(), rep.PID())
			if err != nil {
				t.Fatal(err)
			}
			if r.Op != proto.ReplyNoPermission {
				t.Fatalf("%v to %v: reply %v, want NoPermission", req.Op, rep.PID(), r.Op)
			}
		}
	}
	for i, s := range srvs {
		if got := s.Bindings(); !reflect.DeepEqual(got, want) {
			t.Fatalf("member %d table = %+v, want %+v", i, got, want)
		}
	}
	if err := safety.Check(g); err != nil {
		t.Fatal(err)
	}

	// Reads are served by any member's local table.
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, 0, "bin")
	r, err := client.Send(q, reps[2].PID())
	if err != nil {
		t.Fatal(err)
	}
	if d, _, err := proto.DecodeDescriptor(r.Segment); r.Op != proto.ReplyOK || err != nil || d.Name != "bin" {
		t.Fatalf("follower query reply %v record %+v (%v)", r.Op, d, err)
	}
}

// TestPrefixSnapshotRoundTrip pins the table codec: snapshot and
// restore reproduce static and dynamic bindings exactly, and corrupt
// images are rejected whole.
func TestPrefixSnapshotRoundTrip(t *testing.T) {
	_, srvs, _, _ := startReplicatedPrefix(t, 2)
	src := NewReplicaService(srvs[0])
	if err := srvs[0].Define("storage", core.ContextPair{Server: 42, Ctx: 7}); err != nil {
		t.Fatal(err)
	}
	if err := srvs[0].DefineDynamic("bin", kernel.ServiceStorage, core.CtxStdPrograms); err != nil {
		t.Fatal(err)
	}
	img := src.Snapshot()

	dst := NewReplicaService(srvs[1])
	if err := srvs[1].Define("stale", core.ContextPair{Server: 9, Ctx: 9}); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(nil, img); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srvs[1].Bindings(), srvs[0].Bindings()) {
		t.Fatalf("restored table %+v != source %+v", srvs[1].Bindings(), srvs[0].Bindings())
	}
	if !bytes.Equal(dst.Snapshot(), img) {
		t.Fatalf("restored table re-encodes differently")
	}
	for _, cut := range []int{1, len(img) - 1} {
		if err := dst.Restore(nil, img[:cut]); err == nil {
			t.Fatalf("Restore accepted a %d-byte truncation", cut)
		}
	}
	if err := dst.Restore(nil, append(append([]byte(nil), img...), 0)); err == nil {
		t.Fatalf("Restore accepted trailing garbage")
	}
}

// TestRestoreIsOneRootSwap: a snapshot install replaces the table with
// one published root, so a resolution beside it finds a name both tables
// bind under its old binding or its new one — never missing, as it was
// while the install emptied the old table a name at a time. Run under
// -race this is also the publication-safety test of the install.
func TestRestoreIsOneRootSwap(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	image := func(ctx core.ContextID) []byte {
		proc, err := k.NewHost("src").NewProcess("src")
		if err != nil {
			t.Fatal(err)
		}
		src := New(proc, "mann")
		for i := 0; i < 200; i++ {
			if err := src.Define(fmt.Sprintf("n%d.%d", i, ctx), core.ContextPair{Server: 9, Ctx: ctx}); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.Define("kept", core.ContextPair{Server: 9, Ctx: ctx}); err != nil {
			t.Fatal(err)
		}
		return NewReplicaService(src).Snapshot()
	}
	images := [][]byte{image(1), image(2)}

	proc, err := k.NewHost("dst").NewProcess("dst")
	if err != nil {
		t.Fatal(err)
	}
	dst := NewReplicaService(New(proc, "mann"))
	if err := dst.Restore(nil, images[0]); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, ok := dst.s.index.Get("kept")
				if b := e.binding(); !ok || (b.Pair.Ctx != 1 && b.Pair.Ctx != 2) {
					t.Errorf("a resolution beside Restore saw kept = (%+v, %v)", b, ok)
					return
				}
			}
		}()
	}
	for i := 1; i <= 200; i++ {
		if err := dst.Restore(nil, images[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := dst.s.Bindings(); len(got) != 201 || got["kept"].Pair.Ctx != 1 {
		t.Fatalf("table after the last install: %d names, kept = %+v", len(got), got["kept"])
	}
}
