package mailserver

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

// TestTeamStressMailServer delivers to per-client mailboxes from many
// concurrent client processes against one mail-server team.
func TestTeamStressMailServer(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	s, err := Start(k.NewHost("services"), core.WithTeam(3))
	if err != nil {
		t.Fatal(err)
	}

	const clients, msgs = 5, 4
	for i := 0; i < clients; i++ {
		if err := s.AddMailbox(fmt.Sprintf("user%d@v", i)); err != nil {
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
			addr := fmt.Sprintf("user%d@v", i)
			for j := 0; j < msgs; j++ {
				req := &proto.Message{Op: proto.OpCreateInstance}
				proto.SetCSName(req, uint32(core.CtxDefault), addr)
				proto.SetOpenMode(req, proto.ModeWrite)
				reply, err := proc.Send(req, s.PID())
				if err != nil || proto.ReplyError(reply.Op) != nil {
					errs <- fmt.Errorf("client %d msg %d open: %v, %v", i, j, reply, err)
					return
				}
				f := vio.NewFile(proc, s.PID(), proto.GetInstanceInfo(reply))
				if _, err := f.Write([]byte(fmt.Sprintf("note %d", j))); err != nil {
					errs <- fmt.Errorf("client %d msg %d write: %w", i, j, err)
					return
				}
				if err := f.Close(); err != nil {
					errs <- fmt.Errorf("client %d msg %d close: %w", i, j, err)
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
	reader, err := k.NewHost("reader").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		n, err := messages(reader, s, fmt.Sprintf("user%d@v", i))
		if err != nil || n != msgs {
			t.Fatalf("mailbox %d count = %d, %v", i, n, err)
		}
	}
}
