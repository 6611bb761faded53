package kernel

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/proto"
)

// TestGroupForwardAnswersAsSend: Send and Forward to a group share one
// rule — the first success lands, a failure only once every delivered
// clone has failed — so a served forwarder's Forward to a group returns
// what a Send to it returns. bad forwards its clone to a pid nobody holds
// and fails first, in pid order; good replies; dead's host has crashed
// and unreachable is behind a partition, so neither is delivered.
func TestGroupForwardAnswersAsSend(t *testing.T) {
	k := newDomain(t)
	h, crashed, far := k.NewHost("a"), k.NewHost("crashed"), k.NewHost("far")
	bad := newClient(t, h, "bad")
	bad.Serve(func(msg *proto.Message, from PID) { _ = bad.Forward(msg, from, MakePID(h.ID(), 32767)) })
	good := newClient(t, h, "good")
	good.Serve(func(msg *proto.Message, from PID) {
		_ = good.Reply(&proto.Message{Op: proto.ReplyOK, F: [6]uint32{7}}, from)
	})
	dead, unreachable := newClient(t, crashed, "dead"), serveEcho(t, far)
	crashed.Crash()
	k.Network().Partition(far.ID(), 1)
	fwd := newClient(t, h, "fwd")
	fwd.Serve(func(msg *proto.Message, from PID) { _ = fwd.Forward(msg, from, PID(msg.F[5])) })
	client := newClient(t, h, "client")

	for _, tc := range []struct {
		name    string
		members []*Process
		replied bool
	}{
		{"bad, good", []*Process{bad, good}, true},
		{"bad, good, dead, unreachable", []*Process{bad, good, dead, unreachable}, true},
		{"bad, dead, unreachable", []*Process{bad, dead, unreachable}, false},
	} {
		gid := newGroup(t, k)
		for _, m := range tc.members {
			if err := k.JoinGroup(gid, m.PID()); err != nil {
				t.Fatal(err)
			}
		}
		req := func() *proto.Message { return &proto.Message{Op: proto.OpEcho, F: [6]uint32{5: uint32(gid)}} }
		sent, sendErr := client.Send(req(), gid)
		forwarded, fwdErr := client.Send(req(), fwd.PID())
		if !tc.replied {
			if !errors.Is(sendErr, ErrNonexistentProcess) || !errors.Is(fwdErr, ErrNonexistentProcess) {
				t.Errorf("%s: Send err %v, Forward err %v; want both to fail as bad did", tc.name, sendErr, fwdErr)
			}
			continue
		}
		if sendErr != nil || fwdErr != nil || sent.F[0] != 7 || forwarded.F[0] != 7 {
			t.Errorf("%s: Send %v, %v; Forward %v, %v; want good's reply from both", tc.name, sent, sendErr, forwarded, fwdErr)
		}
	}
}

// groupModel is the representation the group table replaced — a map of
// member sets keyed by group id — kept as the oracle.
type groupModel map[PID]map[PID]bool

func (m groupModel) members(gid PID) []PID {
	out := make([]PID, 0, len(m[gid]))
	for p := range m[gid] {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// TestGroupsMatchMapModel drives seeded random CreateGroup / JoinGroup /
// LeaveGroup / Destroy / GroupMembers sequences through the kernel and
// through the map model, and requires after every step what the group
// sends rely on: members ascending and equal to the model's, a second
// join and a non-member's leave changing nothing, a destroyed process
// gone from every group, a non-group or never-issued id refused, and a
// slice GroupMembers handed out earlier untouched by what came after.
func TestGroupsMatchMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := newDomain(t)
		hosts := []*Host{k.NewHost("a"), k.NewHost("b"), k.NewHost("c")}
		model := groupModel{}
		var gids []PID
		var procs []*Process
		spawn := func() {
			p, err := hosts[r.Intn(len(hosts))].NewProcess("m")
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, p)
		}
		for i := 0; i < 24; i++ {
			spawn()
		}
		// Pids of destroyed processes stay joinable: membership is by
		// pid, and liveness is the send path's business.
		pids := func() PID { return procs[r.Intn(len(procs))].PID() }
		type handedOut struct{ got, want []PID }
		var kept []handedOut
		check := func(gid PID) {
			t.Helper()
			got, err := k.GroupMembers(gid)
			if err != nil {
				t.Fatalf("seed %d: GroupMembers(%v): %v", seed, gid, err)
			}
			if want := model.members(gid); !slices.Equal(got, want) {
				t.Fatalf("seed %d: members of %v = %v, want %v", seed, gid, got, want)
			}
			if len(kept) < 64 {
				kept = append(kept, handedOut{got, slices.Clone(got)})
			}
		}
		for step := 0; step < 6000; step++ {
			if len(gids) == 0 || r.Intn(40) == 0 {
				gid := newGroup(t, k)
				gids, model[gid] = append(gids, gid), map[PID]bool{}
				check(gid)
				continue
			}
			gid := gids[r.Intn(len(gids))]
			switch op := r.Intn(20); {
			case op < 9:
				p := pids()
				for n := 0; n < 2; n++ { // joining twice is joining once
					if err := k.JoinGroup(gid, p); err != nil {
						t.Fatal(err)
					}
				}
				model[gid][p] = true
			case op < 15:
				p := pids() // as often as not no member
				if err := k.LeaveGroup(gid, p); err != nil {
					t.Fatal(err)
				}
				delete(model[gid], p)
			case op < 16:
				i := r.Intn(len(procs))
				procs[i].Destroy()
				for _, set := range model {
					delete(set, procs[i].PID())
				}
				for _, g := range gids {
					check(g)
				}
				spawn()
			case op < 17:
				for _, bad := range []PID{pids(), groupPID(0), groupPID(uint32(len(gids)) + 1), groupPID(maxGroups)} {
					_, err := k.GroupMembers(bad)
					if !errors.Is(err, ErrNoSuchGroup) || !errors.Is(k.JoinGroup(bad, pids()), ErrNoSuchGroup) ||
						!errors.Is(k.LeaveGroup(bad, pids()), ErrNoSuchGroup) {
						t.Fatalf("seed %d: %v (%#x) accepted as a group id", seed, bad, uint32(bad))
					}
				}
			}
			check(gid)
		}
		for _, h := range kept {
			if !slices.Equal(h.got, h.want) {
				t.Fatalf("seed %d: a slice GroupMembers handed out changed from %v to %v", seed, h.want, h.got)
			}
		}
	}
}

// TestGroupTableGrowsUnderUse: eight goroutines join, read and leave a
// thousand groups while a ninth creates ten thousand more, so the table
// gains chunks under them, and one of the eight destroys its process —
// the pass over every group — while the rest are still at it. Under
// -race this is the check that a *group outlives k.mu safely.
func TestGroupTableGrowsUnderUse(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	const workers, shared, more = 8, 1000, 10_000
	gids := make([]PID, shared)
	for i := range gids {
		gids[i] = newGroup(t, k)
	}
	procs := make([]*Process, workers)
	for w := range procs {
		procs[w], _ = h.NewProcess("w")
	}
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < more; i++ {
			if _, err := k.CreateGroup(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := range procs {
		go func(w int) {
			defer wg.Done()
			me := procs[w].PID()
			for i, gid := range gids {
				if err := k.JoinGroup(gid, me); err != nil {
					t.Error(err)
					return
				}
				if m, err := k.GroupMembers(gid); err != nil || !slices.Contains(m, me) || !slices.IsSorted(m) {
					t.Errorf("worker %d, group %d: members %v, err %v", w, i, m, err)
					return
				}
				if (i+w)%2 == 0 {
					_ = k.LeaveGroup(gid, me)
				}
			}
			if w == 0 {
				procs[w].Destroy()
			}
		}(w)
	}
	wg.Wait()
	for i, gid := range gids {
		var want []PID
		for w := 1; w < workers; w++ {
			if (i+w)%2 != 0 {
				want = append(want, procs[w].PID())
			}
		}
		if got, _ := k.GroupMembers(gid); !slices.Equal(got, want) {
			t.Fatalf("group %d: members %v, want %v", i, got, want)
		}
	}
	if last, err := k.CreateGroup(); err != nil || last != groupPID(shared+more+1) {
		t.Fatalf("group after the run is %v, %v; want number %d", last, err, shared+more+1)
	}
}
