// Replicated contexts via multicast (§7 future work): the paper's
// proposal to replace GetPid-based service naming with group Send, so
// that "a single context could be implemented transparently by a group
// of servers working in cooperation". A program directory replicated on
// two file servers is addressed as one context by a group id — and keeps
// answering when one replica crashes.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/rig"
	"repro/internal/vtime"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	r, err := rig.New(rig.DefaultConfig())
	if err != nil {
		return err
	}
	ws := r.WS[0]
	s := ws.Session

	// Replicate the standard program directory on the second file server.
	if err := r.FS2.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		return err
	}
	for _, prog := range []string{"hello", "editor"} {
		data, err := s.ReadFile("[bin]" + prog)
		if err != nil {
			return err
		}
		if err := r.FS2.WriteFile("/bin/"+prog, "system", data); err != nil {
			return err
		}
	}
	fmt.Println("replicated /bin onto fs2")

	// Form a storage group and bind a prefix straight to the group id:
	// the prefix server forwards by multicast; the first member replies.
	gid, err := r.Kernel.CreateGroup()
	if err != nil {
		return err
	}
	if err := r.Kernel.JoinGroup(gid, r.FS1.PID()); err != nil {
		return err
	}
	if err := r.Kernel.JoinGroup(gid, r.FS2.PID()); err != nil {
		return err
	}
	if err := ws.Prefix.Define("gbin", core.ContextPair{Server: gid, Ctx: core.CtxStdPrograms}); err != nil {
		return err
	}
	fmt.Printf("group %v = {fs1 %v, fs2 %v}, prefix [gbin] bound to it\n\n",
		gid, r.FS1.PID(), r.FS2.PID())

	query := func(label string) error {
		start := s.Proc().Now()
		d, err := s.Query("[gbin]hello")
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		fmt.Printf("%-28s -> %s %q, %d bytes, in %s\n",
			label, d.Tag, d.Name, d.Size, vtime.Milliseconds(s.Proc().Now()-start))
		return nil
	}

	if err := query("query with both replicas"); err != nil {
		return err
	}

	// Crash one replica: the group name keeps resolving.
	r.FS1Host.Crash()
	fmt.Println("\n*** fs1 crashed ***")
	if err := query("query with fs1 down"); err != nil {
		return err
	}

	// The group id works directly too, without the prefix server: a
	// client can Send a CSname request to the group like to any process.
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxStdPrograms), "editor")
	proto.SetOpenMode(req, proto.ModeRead)
	reply, err := s.Proc().Send(req, gid)
	if err != nil {
		return err
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		return err
	}
	owner := kernel.PID(proto.InstanceOwner(reply))
	fmt.Printf("\ndirect group open of editor served by %v (the survivor)\n", owner)
	rel := &proto.Message{Op: proto.OpReleaseInstance}
	rel.F[0] = reply.F[0]
	if _, err := s.Proc().Send(rel, owner); err != nil {
		return err
	}

	// A dead member stays in the group until someone prunes it; group
	// sends just get no answer from it. Leave it out explicitly.
	if err := r.Kernel.LeaveGroup(gid, r.FS1.PID()); err != nil {
		return err
	}
	members, err := r.Kernel.GroupMembers(gid)
	if err != nil {
		return err
	}
	fmt.Printf("fs1 left the group: members %v\n", members)

	// Compare: a static prefix to the dead fs1 dangles, the dynamic [bin]
	// rebinds (to fs2, the surviving storage provider), and the group
	// binding never noticed.
	fmt.Println("\nbinding comparison with fs1 dead:")
	if _, err := s.Query("[storage]/bin/hello"); err != nil {
		fmt.Printf("  static [storage] (pid-bound): %v\n", err)
	}
	if d, err := s.Query("[bin]hello"); err == nil {
		fmt.Printf("  dynamic [bin] (GetPid per use): ok, %d bytes from the surviving server\n", d.Size)
	} else {
		fmt.Printf("  dynamic [bin]: %v\n", err)
	}
	if d, err := s.Query("[gbin]hello"); err == nil {
		fmt.Printf("  group [gbin] (multicast): ok, %d bytes, transparently\n", d.Size)
	}
	return nil
}
