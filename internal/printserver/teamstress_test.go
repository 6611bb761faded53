package printserver

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vio"
	"repro/internal/vtime"
)

// TestTeamStressPrintServer submits jobs from many concurrent clients to
// one print-server team; with -race this exercises the queue locking.
func TestTeamStressPrintServer(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	s, err := Start(k.NewHost("services"), core.WithTeam(3))
	if err != nil {
		t.Fatal(err)
	}

	const clients, jobs = 5, 4
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
			for j := 0; j < jobs; j++ {
				req := &proto.Message{Op: proto.OpCreateInstance}
				proto.SetCSName(req, uint32(core.CtxDefault), fmt.Sprintf("job-%d-%d.ps", i, j))
				proto.SetOpenMode(req, proto.ModeWrite|proto.ModeCreate)
				reply, err := proc.Send(req, s.PID())
				if err != nil || proto.ReplyError(reply.Op) != nil {
					errs <- fmt.Errorf("client %d job %d open: %v, %v", i, j, reply, err)
					return
				}
				f := vio.NewFile(proc, s.PID(), proto.GetInstanceInfo(reply))
				if _, err := f.Write([]byte("%!PS")); err != nil {
					errs <- fmt.Errorf("client %d job %d write: %w", i, j, err)
					return
				}
				if err := f.Close(); err != nil {
					errs <- fmt.Errorf("client %d job %d close: %w", i, j, err)
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
	lister, err := k.NewHost("lister").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(queue(t, lister, s)); got != clients*jobs {
		t.Fatalf("queue = %d, want %d", got, clients*jobs)
	}
}
