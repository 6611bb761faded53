package termserver

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

// TestTeamStressTermServer creates terminals and writes screens from
// many concurrent client processes against one term-server team.
func TestTeamStressTermServer(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	host := k.NewHost("ws")
	s, err := Start(host, core.WithTeam(3))
	if err != nil {
		t.Fatal(err)
	}

	const clients, writes = 5, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		proc, err := k.NewHost(fmt.Sprintf("remote%d", i)).NewProcess("client")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(proc.Destroy)
		wg.Add(1)
		go func(i int, proc *kernel.Process) {
			defer wg.Done()
			req := &proto.Message{Op: proto.OpCreateInstance}
			proto.SetCSName(req, uint32(core.CtxDefault), CreateName)
			proto.SetOpenMode(req, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
			reply, err := proc.Send(req, s.PID())
			if err != nil || proto.ReplyError(reply.Op) != nil {
				errs <- fmt.Errorf("client %d create: %v, %v", i, reply, err)
				return
			}
			f := vio.NewFile(proc, s.PID(), proto.GetInstanceInfo(reply))
			for j := 0; j < writes; j++ {
				if _, err := f.Write([]byte(fmt.Sprintf("c%d line %d\n", i, j))); err != nil {
					errs <- fmt.Errorf("client %d write %d: %w", i, j, err)
					return
				}
			}
			if err := f.Close(); err != nil {
				errs <- fmt.Errorf("client %d close: %w", i, err)
			}
		}(i, proc)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	lister, err := host.NewProcess("lister")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(terminals(t, lister, s)); got != clients {
		t.Fatalf("terminals = %d, want %d", got, clients)
	}
}
