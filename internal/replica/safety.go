package replica

import (
	"bytes"
	"fmt"
)

// Safety is the replication safety oracle (ROADMAP 2(a)), asserted
// between the steps of a run over the group's Events and Statuses. It
// remembers what it has seen, so its properties hold across crash,
// rejoin and snapshot install: at most one leader per term; no slot's
// commit index ever decreasing; and, once every live member reports the
// same commit and last index, byte-equal replicated state.
type Safety struct {
	leaders map[uint32]string // term → the slot host that led it
	commits map[string]uint32 // slot host → highest commit seen
}

// Check asserts the oracle's properties over g as it stands.
func (s *Safety) Check(g *Group) error {
	if s.leaders == nil {
		s.leaders, s.commits = make(map[uint32]string), make(map[string]uint32)
	}
	led := func(term uint32, host string) error {
		if prev, ok := s.leaders[term]; ok && prev != host {
			return fmt.Errorf("replica %s: term %d led by %s and by %s", g.Name(), term, prev, host)
		}
		s.leaders[term] = host
		return nil
	}
	for _, ev := range g.Events() {
		var at, term uint32
		var kind, host string
		if n, _ := fmt.Sscanf(ev, "t=%dus %s host=%s term=%d", &at, &kind, &host, &term); n == 4 && (kind == "leader" || kind == "transfer") {
			if err := led(term, host); err != nil {
				return err
			}
		}
	}
	sts := g.Statuses()
	var states [][]byte
	var first *Status
	synced := true
	for i, host := range g.Hosts() {
		st := sts[i]
		if st.Role == 0 {
			continue // dead
		}
		if st.Role == RoleLeader {
			if err := led(st.Term, host); err != nil {
				return err
			}
		}
		if st.Commit < s.commits[host] {
			return fmt.Errorf("replica %s: %s's commit index went back from %d to %d", g.Name(), host, s.commits[host], st.Commit)
		}
		s.commits[host] = st.Commit
		if first == nil {
			first = &st
		}
		synced = synced && st.Commit == first.Commit && st.LastIdx == first.LastIdx
		states = append(states, g.MemberReplica(host).replicated())
	}
	for i := 1; synced && i < len(states); i++ {
		if !bytes.Equal(states[i], states[0]) {
			return fmt.Errorf("replica %s: synced members hold different state", g.Name())
		}
	}
	return nil
}

// replicated is the member's state-machine image the group replicates:
// Snapshot, less any member-local fields the Service leaves out of its
// Replicated image (the file service's mtimes, PROTOCOL.md §11.5).
func (r *Replica) replicated() []byte {
	if rs, ok := r.svc.(interface{ Replicated() []byte }); ok {
		return rs.Replicated()
	}
	return r.svc.Snapshot()
}
