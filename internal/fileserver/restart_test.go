package fileserver

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// TestCrashRestartServedFileServer crashes and restarts a single-process
// (served) file server a hundred times while a client keeps querying it.
// After every crash the exit must already be recorded — a served process
// has no loop of its own to notice the crash — classified as a host
// crash, and the replacement must serve.
func TestCrashRestartServedFileServer(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
			host := k.NewHost("fs")
			client, err := k.NewHost("ws").NewProcess("client")
			if err != nil {
				t.Fatal(err)
			}
			defer client.Destroy()

			newQuery := func() *proto.Message {
				q := &proto.Message{Op: proto.OpQueryObject}
				proto.SetCSName(q, uint32(core.CtxDefault), "boot/kernel")
				return q
			}
			// The background client's requests land before, inside and
			// after each crash; failures are its normal case, hanging is
			// the bug.
			var current atomic.Uint32
			stop, stopped := make(chan struct{}), make(chan struct{})
			background, err := k.NewHost("ws2").NewProcess("background")
			if err != nil {
				t.Fatal(err)
			}
			defer background.Destroy()
			go func() {
				defer close(stopped)
				q := newQuery()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, _ = background.Send(q, kernel.PID(current.Load()))
					runtime.Gosched()
				}
			}()

			for round := 0; round < 100; round++ {
				fs, err := Start(host, "restart")
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if err := fs.WriteFile("/boot/kernel", "system", []byte("vmunix")); err != nil {
					t.Fatal(err)
				}
				current.Store(uint32(fs.PID()))
				if reply, err := client.Send(newQuery(), fs.PID()); err != nil || reply.Op != proto.ReplyOK {
					t.Fatalf("round %d: restarted server answered %v, %v", round, reply, err)
				}
				if err := fs.proc.Err(); err != nil {
					t.Fatalf("round %d: Err() = %v while serving", round, err)
				}
				host.Crash()
				if err := fs.proc.Err(); !errors.Is(err, kernel.ErrHostDown) {
					t.Fatalf("round %d: Err() = %v, want ErrHostDown", round, err)
				}
				if _, err := client.Send(newQuery(), fs.PID()); !errors.Is(err, kernel.ErrNonexistentProcess) {
					t.Fatalf("round %d: send to the crashed server: %v", round, err)
				}
				host.Restart()
			}
			close(stop)
			select {
			case <-stopped:
			case <-time.After(5 * time.Second):
				t.Fatal("background client still blocked 5s after the last restart")
			}
		})
	}
}
