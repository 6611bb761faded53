package prefix

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// TestTeamStressPrefixServer forwards prefixed queries from many
// concurrent client processes through one prefix-server team.
func TestTeamStressPrefixServer(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	ws := k.NewHost("ws")
	target := serveTarget(t, k.NewHost("srv"), "target", nil)
	t.Cleanup(target.Destroy)

	ps, err := Start(ws, "mann", WithTeam(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Proc().Destroy() })
	if err := ps.Define("tgt", core.ContextPair{Server: target.PID(), Ctx: 42}); err != nil {
		t.Fatal(err)
	}

	const clients, trials = 6, 8
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
			for j := 0; j < trials; j++ {
				req := &proto.Message{Op: proto.OpQueryObject}
				proto.SetCSName(req, 0, fmt.Sprintf("[tgt]c%d/q%d", i, j))
				reply, err := proc.Send(req, ps.PID())
				if err != nil {
					errs <- fmt.Errorf("client %d trial %d: %w", i, j, err)
					return
				}
				if reply.Op != proto.ReplyOK {
					errs <- fmt.Errorf("client %d trial %d: reply %v", i, j, reply.Op)
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
	if st := ps.Stats(); st.Forwards != clients*trials {
		t.Fatalf("forwards = %d, want %d", st.Forwards, clients*trials)
	}
}
