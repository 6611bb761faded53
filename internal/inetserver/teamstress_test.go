package inetserver

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

// TestTeamStressInetServer dials and round-trips echo connections from
// many concurrent client processes against one internet-server team.
func TestTeamStressInetServer(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	s, err := Start(k.NewHost("services"), core.WithTeam(3))
	if err != nil {
		t.Fatal(err)
	}

	const clients, trials = 5, 4
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
			req := &proto.Message{Op: proto.OpCreateInstance}
			proto.SetCSName(req, uint32(core.CtxDefault), fmt.Sprintf("tcp/echo%d.host:7", i))
			proto.SetOpenMode(req, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
			reply, err := proc.Send(req, s.PID())
			if err != nil || proto.ReplyError(reply.Op) != nil {
				errs <- fmt.Errorf("client %d dial: %v, %v", i, reply, err)
				return
			}
			f := vio.NewFile(proc, s.PID(), proto.GetInstanceInfo(reply))
			for j := 0; j < trials; j++ {
				msg := fmt.Sprintf("ping %d/%d", i, j)
				if _, err := f.Write([]byte(msg)); err != nil {
					errs <- fmt.Errorf("client %d write %d: %w", i, j, err)
					return
				}
				if _, err := f.Seek(0, 0); err != nil {
					errs <- fmt.Errorf("client %d seek %d: %w", i, j, err)
					return
				}
				buf := make([]byte, 32)
				n, err := f.Read(buf)
				if err != nil || string(buf[:n]) != msg {
					errs <- fmt.Errorf("client %d read %d: %q, %v", i, j, buf[:n], err)
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
	if got := len(list(t, lister, s, "tcp", "")); got != clients {
		t.Fatalf("connections = %d, want %d", got, clients)
	}
}
