package netsim

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
	"repro/internal/vtime"
)

func newNet() *Network { return New(vtime.DefaultModel(), 1) }

func TestUnicastSameHostIsLocal(t *testing.T) {
	n := newNet()
	d, err := n.Unicast(3, 3, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := n.Model().LocalHop(32); d != want {
		t.Fatalf("same-host unicast = %v, want local hop %v", d, want)
	}
	if n.Stats().Packets != 0 {
		t.Fatal("same-host delivery must not touch the wire")
	}
}

func TestUnicastRemoteLatency(t *testing.T) {
	n := newNet()
	d, err := n.Unicast(1, 2, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := n.Model().RemoteHop(32); d != want {
		t.Fatalf("remote unicast = %v, want %v", d, want)
	}
	st := n.Stats()
	if st.Packets != 1 || st.Bytes != 32 {
		t.Fatalf("stats = %+v, want 1 packet / 32 bytes", st)
	}
}

func TestUnicastLargeTransferCountsPackets(t *testing.T) {
	n := newNet()
	if _, err := n.Unicast(1, 2, 64*1024, 0); err != nil {
		t.Fatal(err)
	}
	want := uint64((64*1024 + 511) / 512)
	if got := n.Stats().Packets; got != want {
		t.Fatalf("64 KB transfer counted %d packets, want %d", got, want)
	}
}

func TestPartitionBlocksTraffic(t *testing.T) {
	n := newNet()
	n.Partition(2, 1)
	if n.Reachable(1, 2) {
		t.Fatal("partitioned hosts must be unreachable")
	}
	if _, err := n.Unicast(1, 2, 32, 0); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unicast across partition err = %v, want ErrUnreachable", err)
	}
	// Hosts within the same group still talk.
	n.Partition(5, 1)
	if _, err := n.Unicast(2, 5, 32, 0); err != nil {
		t.Fatalf("unicast within partition group failed: %v", err)
	}
	n.Heal()
	if !n.Reachable(1, 2) {
		t.Fatal("Heal must restore reachability")
	}
	if _, err := n.Unicast(1, 2, 32, 0); err != nil {
		t.Fatalf("unicast after heal failed: %v", err)
	}
}

func TestDropRateAddsRetransmitLatency(t *testing.T) {
	n := newNet()
	base, _ := n.Unicast(1, 2, 32, 0)
	n.SetDropRate(0.5)
	var slower int
	for i := 0; i < 200; i++ {
		d, err := n.Unicast(1, 2, 32, 0)
		if err != nil {
			continue // bounded retransmission may give up at 50% loss
		}
		if d > base {
			slower++
		}
	}
	if slower == 0 {
		t.Fatal("with 50% loss, some deliveries must pay retransmission latency")
	}
	if n.Stats().Drops == 0 {
		t.Fatal("drops must be counted")
	}
}

func TestDropRateOneAlwaysFails(t *testing.T) {
	n := newNet()
	n.SetDropRate(1.0)
	if _, err := n.Unicast(1, 2, 32, 0); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("total loss should exhaust retransmissions, got %v", err)
	}
}

func TestDropRateClamped(t *testing.T) {
	n := newNet()
	n.SetDropRate(-3)
	if _, err := n.Unicast(1, 2, 32, 0); err != nil {
		t.Fatalf("negative drop rate must clamp to 0: %v", err)
	}
	n.SetDropRate(7)
	if _, err := n.Unicast(1, 2, 32, 0); !errors.Is(err, ErrUnreachable) {
		t.Fatal("drop rate above 1 must clamp to 1 and fail")
	}
}

func TestBroadcastSingleFrame(t *testing.T) {
	n := newNet()
	d := n.Broadcast(1, 32, 0)
	if want := n.Model().RemoteHop(32); d != want {
		t.Fatalf("broadcast latency = %v, want %v", d, want)
	}
	st := n.Stats()
	if st.Broadcasts != 1 || st.Packets != 1 {
		t.Fatalf("stats = %+v, want one broadcast frame", st)
	}
}

func TestMulticastSingleFrame(t *testing.T) {
	n := newNet()
	_ = n.Multicast(4, 100, 0)
	if st := n.Stats(); st.Multicasts != 1 {
		t.Fatalf("stats = %+v, want one multicast frame", st)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []time.Duration {
		n := New(vtime.DefaultModel(), 42)
		n.SetDropRate(0.3)
		var out []time.Duration
		for i := 0; i < 50; i++ {
			d, err := n.Unicast(1, 2, 32, 0)
			if err != nil {
				d = -1
			}
			out = append(out, d)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different latency at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUnicastSymmetric(t *testing.T) {
	// Two fresh networks: latency is direction-independent (the shared
	// wire is stateful, so the comparison needs identical starting
	// states).
	f := func(x, y uint16, sz uint16) bool {
		a, errA := newNet().Unicast(HostID(x), HostID(y), int(sz), 0)
		b, errB := newNet().Unicast(HostID(y), HostID(x), int(sz), 0)
		return (errA == nil) == (errB == nil) && a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireContention(t *testing.T) {
	// Two frames issued at the same instant: the second queues behind the
	// first for the wire; a frame issued after the wire is free does not.
	n := newNet()
	first, err := n.Unicast(1, 2, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := n.Unicast(3, 4, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second <= first {
		t.Fatalf("concurrent frame should queue: %v then %v", first, second)
	}
	wire := n.Model().WireTime(512)
	if second != first+wire {
		t.Fatalf("queueing delay = %v, want one wire time %v", second-first, wire)
	}
	// Issued long after the wire went idle: no queueing.
	later, err := n.Unicast(5, 6, 512, vtime.Time(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if later != first {
		t.Fatalf("idle-wire latency = %v, want %v", later, first)
	}
}

func TestPartitionGroupsArePartition(t *testing.T) {
	// Property: reachability derived from groups is reflexive, symmetric,
	// and transitive.
	f := func(groups [8]uint8) bool {
		n := newNet()
		for h, g := range groups {
			n.Partition(HostID(h), int(g%3))
		}
		for a := 0; a < 8; a++ {
			if !n.Reachable(HostID(a), HostID(a)) {
				return false
			}
			for b := 0; b < 8; b++ {
				if n.Reachable(HostID(a), HostID(b)) != n.Reachable(HostID(b), HostID(a)) {
					return false
				}
				for c := 0; c < 8; c++ {
					if n.Reachable(HostID(a), HostID(b)) && n.Reachable(HostID(b), HostID(c)) &&
						!n.Reachable(HostID(a), HostID(c)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryMirrorsWire drives every wire path with a registry
// installed: the series that read Stats must equal it frame for frame — drops
// under loss, the broadcast and multicast counters, the queueing delay of
// a contended wire — a frame recorder sees the same frames, and traffic
// after SetMetrics(nil) reaches Stats alone.
func TestRegistryMirrorsWire(t *testing.T) {
	n := newNet()
	reg := metrics.New()
	n.SetMetrics(reg)
	var frames recorded
	n.SetRecorder(&frames)

	// Three transfers issued at one instant: the second and third queue.
	for i := 0; i < 3; i++ {
		if _, err := n.Unicast(1, 2, 2048, 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Broadcast(1, 64, time.Second)
	n.Multicast(2, 64, 2*time.Second)
	n.SetDropRate(0.5)
	var lost int
	for i := 0; i < 100; i++ {
		if _, err := n.Unicast(1, 2, 32, time.Duration(3+i)*time.Second); err != nil {
			lost++ // retransmissions exhausted: dropped frames, no delivery
		}
	}
	st, snap := n.Stats(), reg.Snapshot()
	total := func(name string) (sum uint64) {
		for _, c := range snap.Counters {
			if c.Name == name {
				sum += c.Value
			}
		}
		return sum
	}
	for name, want := range map[string]uint64{
		"wire_frames_total": st.Packets, "wire_bytes_total": st.Bytes, "wire_drops_total": st.Drops,
		"wire_broadcasts_total": st.Broadcasts, "wire_multicasts_total": st.Multicasts,
	} {
		if got := total(name); got != want || want == 0 {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
	wait := snap.Histograms[0]
	if wait.Name != "wire_queue_wait" || wait.Count != uint64(len(frames)) || int(wait.Count) != 5+100-lost {
		t.Errorf("%s recorded %d waits, %d frames delivered (%d of 105 lost)", wait.Name, wait.Count, len(frames), lost)
	}
	// The third transfer waited for two 2 KB occupancies.
	if want := 2 * n.occupancy(2048); wait.MaxUS != want.Microseconds() || frames[2].Queue != want {
		t.Errorf("longest queue wait %d us, third frame queued %v, want %v", wait.MaxUS, frames[2].Queue, want)
	}

	n.SetMetrics(nil)
	n.SetDropRate(0)
	if _, err := n.Unicast(1, 2, 32, 200*time.Second); err != nil {
		t.Fatal(err)
	}
	n.Broadcast(1, 64, 201*time.Second)
	if after := reg.Snapshot(); !reflect.DeepEqual(after, snap) {
		t.Error("a removed registry was still recorded into")
	}
	if n.Stats().Packets != st.Packets+2 {
		t.Errorf("Stats stopped counting with the registry removed")
	}
}

// TestStatsSumConcurrentUnicasts: four goroutines send at once while a
// fifth reads Stats; the totals must equal the sum over every unicast
// delivered, and no mid-run read may see more than was sent. Under -race
// this checks that every counter is written under the wire lock.
func TestStatsSumConcurrentUnicasts(t *testing.T) {
	const senders, each = 4, 500
	n := newNet()
	var wg sync.WaitGroup
	var sent [senders]Stats
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				bytes := 32 + (s*each+i)%3000
				if _, err := n.Unicast(HostID(s+1), HostID(s+2), bytes, time.Duration(i)*time.Millisecond); err != nil {
					t.Error(err)
					return
				}
				sent[s].Packets += uint64(packetsFor(bytes, n.Model().MaxDataPerPacket))
				sent[s].Bytes += uint64(bytes)
				sent[s].WireBusyFor += n.occupancy(bytes)
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if st := n.Stats(); st.Packets > senders*each*3 || st.Bytes > senders*each*3032 {
				t.Errorf("mid-run Stats beyond what was sent: %+v", st)
			}
		}
	}()
	wg.Wait()
	<-done
	var want Stats
	for _, s := range sent {
		want.Packets += s.Packets
		want.Bytes += s.Bytes
		want.WireBusyFor += s.WireBusyFor
	}
	if st := n.Stats(); st != want {
		t.Fatalf("Stats = %+v, sum over unicasts %+v", st, want)
	}
}

type recorded []FrameEvent

func (r *recorded) RecordFrame(ev FrameEvent) { *r = append(*r, ev) }
