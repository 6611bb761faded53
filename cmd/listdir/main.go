// Command listdir is the paper's single "list directory" command (§6): it
// lists the objects in any of several different kinds of contexts —
// disk files, context prefixes, virtual terminals, print jobs, TCP
// connections, mailboxes, programs in execution, pipes and the time
// service's clock — relying only on the typed description records every
// CSNH server returns.
//
// Usage:
//
//	listdir                  # tour every standard context
//	listdir '[home]' '[tty]' # list specific contexts
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/proto"
	"repro/internal/rig"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "listdir:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	r, err := rig.New(rig.DefaultConfig())
	if err != nil {
		return err
	}
	ws := r.WS[0]
	s := ws.Session
	if err := seedDemoObjects(r, ws); err != nil {
		return err
	}

	contexts := args
	if len(contexts) == 0 {
		contexts = []string{
			"[home]", "[bin]", "[storage]/shared", "[storage2]/archive",
			"[tty]", "[print]", "[tcp]tcp", "[mail]", "[exec]", "[pipe]", "[time]",
		}
	}

	// The per-user prefix table itself is a context too.
	fmt.Fprintln(w, "context prefixes (the user's prefix server):")
	prefixes, err := s.ListPrefixes()
	if err != nil {
		return err
	}
	for _, d := range prefixes {
		printRecord(w, d)
	}
	fmt.Fprintln(w)

	for _, name := range contexts {
		fmt.Fprintf(w, "%s:\n", name)
		records, err := s.List(name)
		if err != nil {
			fmt.Fprintf(w, "  error: %v\n\n", err)
			continue
		}
		if len(records) == 0 {
			fmt.Fprintln(w, "  (empty)")
		}
		for _, d := range records {
			printRecord(w, d)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// printRecord renders one typed description record; the tag field selects
// the interpretation of the rest (§5.5, Figure 3).
func printRecord(w io.Writer, d proto.Descriptor) {
	switch d.Tag {
	case proto.TagFile:
		fmt.Fprintf(w, "  %-15s %-24s %6d bytes  owner=%s\n", d.Tag, d.Name, d.Size, d.Owner)
	case proto.TagDirectory:
		fmt.Fprintf(w, "  %-15s %-24s %6d entries\n", d.Tag, d.Name, d.Size)
	case proto.TagLink:
		fmt.Fprintf(w, "  %-15s %-24s -> (pid %#x, ctx %#x)\n", d.Tag, d.Name, d.TypeSpecific[0], d.TypeSpecific[1])
	case proto.TagContextPrefix:
		kind := "static"
		if d.ObjectID == 1 {
			kind = "dynamic"
		}
		fmt.Fprintf(w, "  %-15s [%-22s] %s -> (%#x, ctx %#x)\n", d.Tag, d.Name, kind, d.TypeSpecific[0], d.TypeSpecific[1])
	case proto.TagTerminal:
		fmt.Fprintf(w, "  %-15s %-24s %6d bytes on screen\n", d.Tag, d.Name, d.Size)
	case proto.TagPrintJob:
		fmt.Fprintf(w, "  %-15s %-24s %6d bytes, queue position %d\n", d.Tag, d.Name, d.Size, d.TypeSpecific[0])
	case proto.TagTCPConnection:
		fmt.Fprintf(w, "  %-15s %-24s sent=%d recv=%d\n", d.Tag, d.Name, d.TypeSpecific[0], d.TypeSpecific[1])
	case proto.TagProgram:
		fmt.Fprintf(w, "  %-15s %-24s pid=%#x image=%s\n", d.Tag, d.Name, d.TypeSpecific[0], d.Owner)
	case proto.TagMailbox:
		fmt.Fprintf(w, "  %-15s %-24s %d message(s)\n", d.Tag, d.Name, d.TypeSpecific[0])
	case proto.TagPipe:
		fmt.Fprintf(w, "  %-15s %-24s %6d bytes buffered, %d reader(s), %d writer(s)\n", d.Tag, d.Name, d.Size, d.TypeSpecific[0], d.TypeSpecific[1])
	case proto.TagServiceBinding:
		fmt.Fprintf(w, "  %-15s %-24s %d s since boot\n", d.Tag, d.Name, d.Size)
	default:
		fmt.Fprintf(w, "  %-15s %-24s size=%d\n", d.Tag, d.Name, d.Size)
	}
}

// seedDemoObjects populates the transient-object servers so the tour has
// something to show.
func seedDemoObjects(r *rig.Rig, ws *rig.Workstation) error {
	s := ws.Session
	// A virtual terminal with output on it.
	term, err := s.Open("[tty]new", proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	if err != nil {
		return err
	}
	if _, err := term.Write([]byte("% ls [home]\n")); err != nil {
		return err
	}
	if err := term.Close(); err != nil {
		return err
	}
	// A queued print job.
	job, err := s.Open("[print]naming-paper.ps", proto.ModeWrite|proto.ModeCreate)
	if err != nil {
		return err
	}
	if _, err := job.Write([]byte("%!PS naming paper")); err != nil {
		return err
	}
	if err := job.Close(); err != nil {
		return err
	}
	// An open TCP connection.
	conn, err := s.Open("[tcp]tcp/su-score.arpa:23", proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	if err != nil {
		return err
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		return err
	}
	if err := conn.Close(); err != nil {
		return err
	}
	// A program in execution.
	req := &proto.Message{Op: proto.OpExecProgram}
	proto.SetCSName(req, 0, "editor")
	reply, err := s.Proc().Send(req, ws.Exec.PID())
	if err != nil {
		return err
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		return err
	}
	// Mail in a mailbox.
	mb, err := s.Open("[mail]mann@v.stanford.edu", proto.ModeWrite)
	if err != nil {
		return err
	}
	if _, err := mb.Write([]byte("camera-ready due Friday")); err != nil {
		return err
	}
	if err := mb.Close(); err != nil {
		return err
	}
	// A pipe with bytes waiting for a reader.
	pipe, err := s.Open("[pipe]ls-to-more", proto.ModeWrite|proto.ModeCreate)
	if err != nil {
		return err
	}
	if _, err := pipe.Write([]byte("welcome.txt\n")); err != nil {
		return err
	}
	return pipe.Close()
}
