package execserver

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// TestTeamStressExecServer launches programs from many concurrent client
// processes against one exec-server team.
func TestTeamStressExecServer(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	fs, err := fileserver.Start(k.NewHost("fs"), "fs")
	if err != nil {
		t.Fatal(err)
	}
	binCtx, err := fs.MkdirAll("/bin", "system")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/bin/tool", "system", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	s, err := Start(k.NewHost("ws"), core.ContextPair{Server: fs.PID(), Ctx: binCtx}, core.WithTeam(3))
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterBody("tool", func(p *kernel.Process) { <-p.Done() })

	const clients, launches = 4, 3
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
			for j := 0; j < launches; j++ {
				req := &proto.Message{Op: proto.OpExecProgram}
				proto.SetCSName(req, uint32(core.CtxDefault), "tool")
				reply, err := proc.Send(req, s.PID())
				if err != nil {
					errs <- fmt.Errorf("client %d launch %d: %w", i, j, err)
					return
				}
				if reply.Op != proto.ReplyOK || !strings.HasPrefix(string(reply.Segment), "tool.") {
					errs <- fmt.Errorf("client %d launch %d: %v %q", i, j, reply.Op, reply.Segment)
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
	client, err := k.NewHost("lister").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(programs(t, client, s)); got != clients*launches {
		t.Fatalf("running = %d, want %d", got, clients*launches)
	}
}
