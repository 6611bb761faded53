package replica

import (
	"bytes"
	"fmt"
)

// Safety is the replication safety oracle (ROADMAP 3(a)), asserted
// between the steps of a run over the group's events and members. It
// remembers the leaders it has seen, so its properties hold across crash,
// rejoin and snapshot install: at most one leader per term, and every
// live member the group counts as synced holds byte-equal state. A
// read-only group has nothing that can lag, so synced means equal.
type Safety struct {
	leaders map[uint32]string // term → the slot host that led it
}

// Check asserts the oracle's properties over g as it stands.
func (s *Safety) Check(g *Group) error {
	if s.leaders == nil {
		s.leaders = make(map[uint32]string)
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
	g.mu.Lock()
	slots := make([]member, len(g.members))
	for i, m := range g.members {
		slots[i] = *m
	}
	g.mu.Unlock()
	var image []byte
	first := true
	for _, m := range slots {
		if !g.k.ProcessAlive(m.rep.PID()) {
			continue
		}
		if term, role := m.rep.status(); role == RoleLeader {
			if err := led(term, m.host); err != nil {
				return err
			}
		}
		if !m.synced {
			continue
		}
		if img := m.rep.replicated(); first {
			image, first = img, false
		} else if !bytes.Equal(img, image) {
			return fmt.Errorf("replica %s: synced members hold different state (%s)", g.Name(), m.host)
		}
	}
	return nil
}

// replicated is the member's image the group replicates: Snapshot, less
// any member-local fields the Service leaves out of its Replicated image
// (the file service's mtimes, PROTOCOL.md §11.5).
func (r *Replica) replicated() []byte {
	if rs, ok := r.svc.(interface{ Replicated() []byte }); ok {
		return rs.Replicated()
	}
	return r.svc.Snapshot()
}
