package kernel

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/proto"
)

// Partition behaviour of the group-IPC paths (groups.go): multicast sends
// reach only the members in the sender's partition, broadcast GetPid
// queries see only kernels in the sender's partition, and Heal restores
// both — the fault-injection surface the chaos engine drives.

func TestSendGroupUnderPartition(t *testing.T) {
	k := newDomain(t)
	h1, h2, h3 := k.NewHost("ws"), k.NewHost("a"), k.NewHost("b")
	cli := newClient(t, h1, "cli")
	ea, eb := spawnEcho(t, h2), spawnEcho(t, h3)
	gid := newGroup(t, k)
	if err := k.JoinGroup(gid, ea.PID()); err != nil {
		t.Fatal(err)
	}
	if err := k.JoinGroup(gid, eb.PID()); err != nil {
		t.Fatal(err)
	}

	if _, err := cli.Send(&proto.Message{Op: proto.OpEcho}, gid); err != nil {
		t.Fatalf("healthy group send: %v", err)
	}

	// One member partitioned away: the multicast still completes via the
	// reachable member.
	k.Network().Partition(h3.ID(), 1)
	if _, err := cli.Send(&proto.Message{Op: proto.OpEcho}, gid); err != nil {
		t.Fatalf("group send with one member partitioned: %v", err)
	}

	// Every member unreachable: a bounded-time failure, charged one
	// retransmission timeout, not a hang.
	k.Network().Partition(h2.ID(), 2)
	before := cli.Now()
	_, err := cli.Send(&proto.Message{Op: proto.OpEcho}, gid)
	if !errors.Is(err, ErrNonexistentProcess) {
		t.Fatalf("fully-partitioned group send err = %v", err)
	}
	if elapsed := cli.Now() - before; elapsed < k.Model().RetransmitTimeout {
		t.Fatalf("failure must cost at least one retransmit timeout, got %v", elapsed)
	}

	k.Network().Heal()
	if _, err := cli.Send(&proto.Message{Op: proto.OpEcho}, gid); err != nil {
		t.Fatalf("group send after heal: %v", err)
	}
}

func TestBroadcastGetPidUnderPartition(t *testing.T) {
	k := newDomain(t)
	h1, h2 := k.NewHost("ws"), k.NewHost("srv")
	cli := newClient(t, h1, "cli")
	srv := spawnEcho(t, h2)
	const svc = Service(42)
	if err := h2.SetPid(svc, srv.PID(), ScopeBoth); err != nil {
		t.Fatal(err)
	}

	if pid, err := cli.GetPid(svc, ScopeBoth); err != nil || pid != srv.PID() {
		t.Fatalf("GetPid = %v, %v", pid, err)
	}

	k.Network().Partition(h2.ID(), 1)
	if _, err := cli.GetPid(svc, ScopeBoth); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetPid across partition err = %v", err)
	}

	k.Network().Heal()
	if pid, err := cli.GetPid(svc, ScopeBoth); err != nil || pid != srv.PID() {
		t.Fatalf("GetPid after heal = %v, %v", pid, err)
	}
}

func TestPartitionHealRacingGroupIPC(t *testing.T) {
	// Partition/Heal flips concurrent with in-flight multicast sends and
	// broadcast GetPid queries: every operation completes (no hang), and
	// the only admissible failures are the partition-shaped ones.
	k := newDomain(t)
	h1, h2, h3 := k.NewHost("ws"), k.NewHost("a"), k.NewHost("b")
	cli := newClient(t, h1, "cli")
	ea, eb := spawnEcho(t, h2), spawnEcho(t, h3)
	gid := newGroup(t, k)
	if err := k.JoinGroup(gid, ea.PID()); err != nil {
		t.Fatal(err)
	}
	if err := k.JoinGroup(gid, eb.PID()); err != nil {
		t.Fatal(err)
	}
	const svc = Service(77)
	if err := h3.SetPid(svc, eb.PID(), ScopeBoth); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			g ^= 1
			k.Network().Partition(h3.ID(), g)
			k.Network().Heal()
		}
	}()

	for i := 0; i < 200; i++ {
		// h2's member stays in the client's partition throughout, so the
		// multicast always has a reachable member; transient send errors
		// must still be partition-shaped, never anything else.
		if _, err := cli.Send(&proto.Message{Op: proto.OpEcho}, gid); err != nil &&
			!errors.Is(err, ErrNonexistentProcess) && !errors.Is(err, ErrUnreachable) {
			t.Fatalf("iteration %d group send err = %v", i, err)
		}
		// The broadcast query races the flip: success or not-found only.
		if _, err := cli.GetPid(svc, ScopeBoth); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("iteration %d GetPid err = %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
