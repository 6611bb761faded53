package fileserver

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vio"
	"repro/internal/vtime"
)

// TestTeamStressFileServer hammers one file-server team from many
// concurrent client processes; with -race this exercises the volume,
// buffer cache, and instance locking under real parallelism.
func TestTeamStressFileServer(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	reg := metrics.New()
	k.SetMetrics(reg)
	host := k.NewHost("fs")
	fs, err := Start(host, "stress", WithTeam(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Proc().Destroy() })

	const clients, trials = 6, 8
	for i := 0; i < clients; i++ {
		path := fmt.Sprintf("/u%d/data.txt", i)
		if err := fs.WriteFile(path, "system", []byte(fmt.Sprintf("client %d payload", i))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		proc, err := k.NewHost(fmt.Sprintf("ws%d", i)).NewProcess("client")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(proc.Destroy)
		wg.Add(1)
		go func(i int, proc *kernel.Process) {
			defer wg.Done()
			want := fmt.Sprintf("client %d payload", i)
			for j := 0; j < trials; j++ {
				q := &proto.Message{Op: proto.OpQueryObject}
				proto.SetCSName(q, uint32(core.CtxDefault), fmt.Sprintf("u%d/data.txt", i))
				reply, err := proc.Send(q, fs.PID())
				if err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", i, j, err)
					return
				}
				if reply.Op != proto.ReplyOK {
					errs <- fmt.Errorf("client %d query %d: reply %v", i, j, reply.Op)
					return
				}
				open := &proto.Message{Op: proto.OpCreateInstance}
				proto.SetCSName(open, uint32(core.CtxDefault), fmt.Sprintf("u%d/data.txt", i))
				proto.SetOpenMode(open, proto.ModeRead)
				reply, err = proc.Send(open, fs.PID())
				if err != nil || reply.Op != proto.ReplyOK {
					errs <- fmt.Errorf("client %d open %d: %v, %v", i, j, reply, err)
					return
				}
				f := new(vio.File).Init(proc, fs.PID(), proto.GetInstanceInfo(reply))
				got, err := f.ReadAll()
				if err != nil || string(got) != want {
					errs <- fmt.Errorf("client %d read %d: %q, %v", i, j, got, err)
					return
				}
				if err := f.Close(); err != nil {
					errs <- fmt.Errorf("client %d close %d: %w", i, j, err)
					return
				}
			}
		}(i, proc)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The registry series A14 and vstat read: the team answered every
	// request through a worker, so it handed off as many as it answered.
	var requests, handoffs uint64
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case "server_requests_total":
			requests += c.Value
		case "server_handoffs_total":
			handoffs += c.Value
		}
	}
	if requests == 0 || handoffs != requests {
		t.Fatalf("%d requests answered, %d handed off: want as many of each, and some", requests, handoffs)
	}
}
