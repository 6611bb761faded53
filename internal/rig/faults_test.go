package rig

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proto"
)

// TestPacketLossMaskedByRetransmission: the kernel IPC masks moderate
// packet loss by retransmission (§3.1's IPC is "entirely adequate as a
// transport level"); operations succeed, just slower.
func TestPacketLossMaskedByRetransmission(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session

	base := s.Proc().Now()
	if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
		t.Fatal(err)
	}
	cleanTime := s.Proc().Now() - base

	r.Net.SetDropRate(0.05)
	defer r.Net.SetDropRate(0)
	ok, failed := 0, 0
	start := s.Proc().Now()
	for i := 0; i < 50; i++ {
		if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
			failed++
			continue
		}
		ok++
	}
	lossyAvg := (s.Proc().Now() - start) / 50
	if ok < 45 {
		t.Fatalf("only %d/50 reads survived 5%% loss", ok)
	}
	if lossyAvg <= cleanTime {
		t.Fatalf("loss should cost retransmission latency: %v vs clean %v", lossyAvg, cleanTime)
	}
}

func TestPartitionDuringForwardChain(t *testing.T) {
	// The client can reach FS1 but FS1 cannot reach FS2: a name crossing
	// the link fails cleanly; direct FS1 names keep working.
	r := boot(t)
	s := r.WS[0].Session
	// Put FS2 in its own partition.
	r.Net.Partition(r.FS2Host.ID(), 1)
	defer r.Net.Heal()

	if _, err := s.ReadFile("[storage]/shared/archive/2026/paper.mss"); !errors.Is(err, netsim.ErrUnreachable) {
		t.Fatalf("cross-partition traversal err = %v", err)
	}
	if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
		t.Fatalf("unrelated names must keep working: %v", err)
	}
	r.Net.Heal()
	if _, err := s.ReadFile("[storage]/shared/archive/2026/paper.mss"); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestCrashDuringOpenInstanceInvalidated(t *testing.T) {
	// Instances die with the server; subsequent instance operations fail
	// with nonexistent process, and a fresh open on the re-created server
	// works.
	r := boot(t)
	s := r.WS[0].Session
	f, err := s.Open("[home]welcome.txt", proto.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	faultFS1(t, r, chaos.Crash)
	if _, err := f.ReadBlock(0, nil); !errors.Is(err, kernel.ErrNonexistentProcess) {
		t.Fatalf("read on dead server err = %v", err)
	}
	faultFS1(t, r, chaos.Restart)
	// The home prefix is static and now dangles; the dynamic [bin] works.
	if _, err := s.ReadFile("[bin]hello"); err != nil {
		t.Fatalf("dynamic binding after restart: %v", err)
	}
}

func TestPrefixServerCrashIsolatedPerUser(t *testing.T) {
	// One user's prefix server dies: only that user's bracketed names
	// break; the other user and current-context names are unaffected —
	// no central failure point (§2.2).
	r := boot(t)
	victim, other := r.WS[0], r.WS[1]

	ps, err := victim.Host.ProcessByPID(victim.Prefix.PID())
	if err != nil {
		t.Fatal(err)
	}
	ps.Destroy()
	if _, err := victim.Session.ReadFile("[home]welcome.txt"); !errors.Is(err, kernel.ErrNonexistentProcess) {
		t.Fatalf("victim's prefixed name err = %v", err)
	}
	// Current-context access does not involve the prefix server at all.
	if _, err := victim.Session.ReadFile("welcome.txt"); err != nil {
		t.Fatalf("victim's current-context name: %v", err)
	}
	if _, err := other.Session.ReadFile("[home]welcome.txt"); err != nil {
		t.Fatalf("other user's names: %v", err)
	}
}

func TestConcurrentSessionsMixedWorkload(t *testing.T) {
	// Eight concurrent sessions per user hammer the servers with mixed
	// operations; everything stays consistent and race-free.
	r := boot(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for w, ws := range r.WS {
		for i := 0; i < 4; i++ {
			sess, err := r.NewSession(ws)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(w, i int) {
				defer wg.Done()
				base := fmt.Sprintf("[home]stress-%d-%d", w, i)
				for j := 0; j < 20; j++ {
					name := fmt.Sprintf("%s-%d.txt", base, j)
					payload := fmt.Sprintf("payload %d %d %d", w, i, j)
					if err := sess.WriteFile(name, []byte(payload)); err != nil {
						errCh <- err
						return
					}
					got, err := sess.ReadFile(name)
					if err != nil || string(got) != payload {
						errCh <- fmt.Errorf("read back %q: %q, %v", name, got, err)
						return
					}
					if j%3 == 0 {
						if err := sess.Remove(name); err != nil {
							errCh <- err
							return
						}
					}
					if _, err := sess.List("[home]"); err != nil {
						errCh <- err
						return
					}
				}
			}(w, i)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Every surviving file is intact.
	records, err := r.WS[0].Session.List("[home]")
	if err != nil {
		t.Fatal(err)
	}
	survivors := 0
	for _, d := range records {
		if strings.HasPrefix(d.Name, "stress-") {
			survivors++
		}
	}
	// 4 sessions × 20 files × (2/3 kept, j%3!=0 → 13 of 20).
	if survivors != 4*13 {
		t.Fatalf("survivors = %d, want %d", survivors, 4*13)
	}
}

func TestConcurrentTerminalCreation(t *testing.T) {
	// Transient-object id generation stays unique under concurrency.
	r := boot(t)
	ws := r.WS[0]
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		sess, err := r.NewSession(ws)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := sess.Open("[tty]new", proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
			if err != nil {
				errCh <- err
				return
			}
			if _, err := f.Write([]byte("x")); err != nil {
				errCh <- err
				return
			}
			errCh <- f.Close()
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	records, err := ws.Session.List("[tty]")
	if err != nil || len(records) != 8 {
		t.Fatalf("listing = %d records, %v", len(records), err)
	}
	seen := map[string]bool{}
	for _, d := range records {
		if seen[d.Name] {
			t.Fatalf("duplicate terminal name %q", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestForwardToDeadServerBoundedTime(t *testing.T) {
	// A CSname request forwarded along the chain prefix -> FS1 -> FS2
	// when FS2 is dead must fail in bounded virtual time — no hang, and
	// the client is charged the retransmit budget the discovery costs
	// (satellite regression for the §5.4 forwarding path).
	r := boot(t)
	s := r.WS[0].Session
	r.FS2Host.Crash()

	start := s.Proc().Now()
	done := make(chan error, 1)
	go func() {
		_, err := s.ReadFile("[storage]/shared/archive/2026/paper.mss")
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("forward to dead server hung")
	}
	if !errors.Is(err, kernel.ErrNonexistentProcess) {
		t.Fatalf("read through dead forward target err = %v", err)
	}
	elapsed := s.Proc().Now() - start
	if elapsed < r.Model.RetransmitTimeout {
		t.Fatalf("failure must cost at least one retransmit timeout, got %v", elapsed)
	}
	if elapsed > 10*r.Model.RetransmitTimeout {
		t.Fatalf("failure took %v, want bounded by the retransmit budget", elapsed)
	}
}

func TestCrashWhileRequestInFlightNoHang(t *testing.T) {
	// A server crash landing while transactions are mid-flight fails the
	// pending senders instead of leaving them blocked forever.
	r := boot(t)
	s := r.WS[0].Session
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := s.ReadFile("[storage2]/archive/2026/paper.mss"); err != nil {
				return // the crash landed; erroring out is the point
			}
		}
	}()
	time.Sleep(time.Millisecond) // real time: let reads get in flight
	r.FS2Host.Crash()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("request in flight at crash time hung")
	}
}

func TestTotalLossEventuallyFails(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	r.Net.SetDropRate(1.0)
	defer r.Net.SetDropRate(0)
	if _, err := s.ReadFile("[home]welcome.txt"); err == nil {
		t.Fatal("total loss should exhaust retransmissions")
	}
}

// mustNew boots cfg, failing the test if it cannot.
func mustNew(t testing.TB, cfg Config) *Rig {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// faultFS1 fires actions on fs1, in order, through the topology's chaos
// engine at the first session's virtual time, and fails the test on an
// action not carried out, as Run does.
func faultFS1(t testing.TB, r *Rig, actions ...chaos.Action) {
	t.Helper()
	faultOn(t, r, "fs1", actions...)
}

// faultOn is faultFS1 on any host.
func faultOn(t testing.TB, r *Rig, host string, actions ...chaos.Action) {
	t.Helper()
	now := r.WS[0].Session.Proc().Now()
	events := make([]chaos.Event, len(actions))
	for i, a := range actions {
		events[i] = chaos.Event{At: now, Action: a, Host: host}
	}
	eng := r.NewChaos(events)
	eng.AdvanceTo(now)
	if err := chaos.CheckLog(eng.Log()); err != nil {
		t.Fatal(err)
	}
}

// recovered sums the registry's client_<name>_total over every session.
func recovered(r *Rig, name string) uint64 {
	return metrics.Sample{Counters: r.Metrics.Snapshot().Counters}.Total("client_" + name + "_total")
}

// TestRestartedFS1KeepsItsOptions: a scripted restart re-creates fs1 with
// the scenario's file-server options, not the file server's defaults
// (read-ahead on, one process). Reading the first block of a two-block
// file fetches that page alone only when read-ahead is off, and the team's
// workers follow the receptionist in pid order.
func TestRestartedFS1KeepsItsOptions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadAhead, cfg.FileServerTeam = false, 2
	r := mustNew(t, cfg)
	faultFS1(t, r, chaos.Crash, chaos.Restart)
	page := r.Model.DiskPageSize
	if err := r.FS1.WriteFile("/bin/two.dat", "system", make([]byte, 2*page)); err != nil {
		t.Fatal(err)
	}
	f, err := r.WS[0].Session.Open("[bin]two.dat", proto.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := r.FS1.Disk().Stats()
	if _, err := f.ReadBlock(0, nil); err != nil {
		t.Fatal(err)
	}
	if after, _ := r.FS1.Disk().Stats(); after-before != 1 {
		t.Fatalf("restarted fs1 fetched %d pages for one block read, want 1 (read-ahead off)", after-before)
	}
	for i := uint16(1); i <= 2; i++ {
		pid := kernel.MakePID(r.FS1Host.ID(), r.FS1.PID().Local()+i)
		w, err := r.FS1Host.ProcessByPID(pid)
		if err != nil || !strings.HasSuffix(w.Name(), fmt.Sprintf("/worker%d", i-1)) {
			t.Fatalf("restarted fs1 has no team worker %d at %v: %v", i-1, pid, err)
		}
	}
}
