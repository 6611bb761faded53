// Command vsh is a small V-System executive over the client run-time
// library: it boots the standard simulated rig and runs shell-style
// commands against the distributed name space — current context
// navigation, context-prefixed names, typed listings, program loading.
//
// Usage:
//
//	vsh -c 'ls [home]; cat welcome.txt; cd notes; pwd'
//	vsh -c 'addprefix pub storage 0xffff0003; cat [pub]users/mann/welcome.txt'
//	vsh -c 'link papers [storage2]/archive; ls papers'
//	echo 'ls [bin]' | vsh
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/rig"
	"repro/internal/timeserver"
	"repro/internal/vtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vsh:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("vsh", flag.ContinueOnError)
	script := fs.String("c", "", "semicolon-separated commands to run (default: read stdin)")
	user := fs.String("user", "mann", "workstation user")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := rig.DefaultConfig()
	if *user != "mann" && *user != "cheriton" {
		cfg.Users = append(cfg.Users, *user)
	}
	r, err := rig.New(cfg)
	if err != nil {
		return err
	}
	var ws *rig.Workstation
	for _, w := range r.WS {
		if w.User == *user {
			ws = w
		}
	}
	if ws == nil {
		return fmt.Errorf("no workstation for user %q", *user)
	}
	sh := &shell{ws: ws, out: stdout}

	if *script != "" {
		for _, line := range strings.Split(*script, ";") {
			if err := sh.exec(strings.TrimSpace(line)); err != nil {
				return err
			}
		}
		return nil
	}
	scanner := bufio.NewScanner(stdin)
	for scanner.Scan() {
		if err := sh.exec(strings.TrimSpace(scanner.Text())); err != nil {
			return err
		}
	}
	return scanner.Err()
}

type shell struct {
	ws  *rig.Workstation
	out io.Writer
}

// exec runs one command line; command errors are reported, not fatal.
func (sh *shell) exec(line string) error {
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	if err := sh.dispatch(cmd, args); err != nil {
		fmt.Fprintf(sh.out, "%s: %v\n", cmd, err)
	}
	return nil
}

func (sh *shell) dispatch(cmd string, args []string) error {
	s := sh.ws.Session
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("expected %d argument(s)", n)
		}
		return nil
	}
	switch cmd {
	case "help":
		fmt.Fprintln(sh.out, "commands: ls lsp cd pwd cat write rm link unlink mv ln mkdir query chmod prefixes addprefix rmprefix load exec jobs print mail name pipe-send pipe-recv stats time help")
		return nil

	case "ls":
		name := ""
		if len(args) > 0 {
			name = args[0]
		}
		records, err := s.List(name)
		if err != nil {
			return err
		}
		for _, d := range records {
			fmt.Fprintf(sh.out, "%-16s %8d  %s\n", d.Tag, d.Size, d.Name)
		}
		return nil

	case "lsp":
		// Pattern-matched context directory (§5.6 extension).
		if err := need(2); err != nil {
			return err
		}
		records, err := s.ListPattern(args[0], args[1])
		if err != nil {
			return err
		}
		for _, d := range records {
			fmt.Fprintf(sh.out, "%-16s %8d  %s\n", d.Tag, d.Size, d.Name)
		}
		return nil

	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return s.MakeContext(args[0])

	case "link":
		// A cross-server link (Figure 4): the name, interpreted by its own
		// server, is bound to a context that may live on another.
		if err := need(2); err != nil {
			return err
		}
		pair, err := s.MapContext(args[1])
		if err != nil {
			return err
		}
		return s.AddLink(args[0], pair)

	case "unlink":
		if err := need(1); err != nil {
			return err
		}
		return s.Unlink(args[0])

	case "cd":
		if err := need(1); err != nil {
			return err
		}
		return s.ChangeContext(args[0])

	case "pwd":
		name, err := s.CurrentName()
		if err != nil {
			return err
		}
		fmt.Fprintln(sh.out, name)
		return nil

	case "cat":
		if err := need(1); err != nil {
			return err
		}
		data, err := s.ReadFile(args[0])
		if err != nil {
			return err
		}
		_, err = sh.out.Write(data)
		return err

	case "write":
		if err := need(2); err != nil {
			return err
		}
		return s.WriteFile(args[0], []byte(strings.Join(args[1:], " ")+"\n"))

	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return s.Remove(args[0])

	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return s.Rename(args[0], args[1])

	case "ln":
		if err := need(2); err != nil {
			return err
		}
		return s.Link(args[0], args[1])

	case "query":
		if err := need(1); err != nil {
			return err
		}
		d, err := s.Query(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "%s  id=%d size=%d owner=%q perms=%03b\n", d.Tag, d.ObjectID, d.Size, d.Owner, d.Perms)
		return nil

	case "chmod":
		if err := need(2); err != nil {
			return err
		}
		d, err := s.Query(args[1])
		if err != nil {
			return err
		}
		var perms uint16
		if strings.ContainsRune(args[0], 'r') {
			perms |= proto.PermRead
		}
		if strings.ContainsRune(args[0], 'w') {
			perms |= proto.PermWrite
		}
		if strings.ContainsRune(args[0], 'x') {
			perms |= proto.PermExecute
		}
		d.Perms = perms
		return s.Modify(args[1], d)

	case "prefixes":
		records, err := s.ListPrefixes()
		if err != nil {
			return err
		}
		for _, d := range records {
			kind := "static "
			if d.ObjectID == 1 {
				kind = "dynamic"
			}
			fmt.Fprintf(sh.out, "[%s]\t%s -> (%#x, ctx %#x)\n", d.Name, kind, d.TypeSpecific[0], d.TypeSpecific[1])
		}
		return nil

	case "addprefix":
		if err := need(2); err != nil {
			return err
		}
		if len(args) > 2 {
			// The dynamic form (§4.2): a service and a well-known context,
			// re-resolved by GetPid each time the prefix is used.
			svc, err := service(args[1])
			if err != nil {
				return err
			}
			ctx, err := strconv.ParseUint(args[2], 0, 32)
			if err != nil {
				return fmt.Errorf("context id %q: %w", args[2], err)
			}
			return s.AddDynamicName(args[0], svc, core.ContextID(ctx))
		}
		pair, err := s.MapContext(args[1])
		if err != nil {
			return err
		}
		return s.AddName(args[0], pair)

	case "rmprefix":
		if err := need(1); err != nil {
			return err
		}
		return s.DeleteName(args[0])

	case "load":
		if err := need(1); err != nil {
			return err
		}
		buf := make([]byte, 64*1024)
		start := s.Proc().Now()
		n, err := s.LoadProgram(args[0], buf)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "loaded %d bytes in %s (virtual)\n", n, vtime.Milliseconds(s.Proc().Now()-start))
		return nil

	case "exec":
		if err := need(1); err != nil {
			return err
		}
		progName, pid, err := s.Exec("[exec]" + args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "started %s (pid %v)\n", progName, pid)
		return nil

	case "jobs":
		records, err := s.List("[exec]")
		if err != nil {
			return err
		}
		for _, d := range records {
			fmt.Fprintf(sh.out, "%s (pid %#x, image %s)\n", d.Name, d.TypeSpecific[0], d.Owner)
		}
		return nil

	case "print":
		if err := need(2); err != nil {
			return err
		}
		f, err := s.Open("[print]"+args[0], proto.ModeWrite|proto.ModeCreate)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte(strings.Join(args[1:], " "))); err != nil {
			f.Close()
			return err
		}
		return f.Close()

	case "mail":
		if err := need(2); err != nil {
			return err
		}
		f, err := s.Open("[mail]"+args[0], proto.ModeWrite)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte(strings.Join(args[1:], " "))); err != nil {
			f.Close()
			return err
		}
		return f.Close()

	case "name":
		// §6: determine the "absolute" name of an open file — the
		// inverse mapping, with its documented imperfections.
		if err := need(1); err != nil {
			return err
		}
		f, err := s.Open(args[0], proto.ModeRead)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := f.InstanceName()
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "instance %d on %v was opened as %q\n", f.InstanceID(), f.Server(), n)
		return nil

	case "pipe-send":
		if err := need(2); err != nil {
			return err
		}
		f, err := s.Open("[pipe]"+args[0], proto.ModeWrite|proto.ModeCreate)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte(strings.Join(args[1:], " "))); err != nil {
			f.Close()
			return err
		}
		return f.Close()

	case "pipe-recv":
		if err := need(1); err != nil {
			return err
		}
		f, err := s.Open("[pipe]"+args[0], proto.ModeRead)
		if err != nil {
			return err
		}
		defer f.Close()
		buf := make([]byte, 512)
		n, err := f.ReadRetry(buf, 8)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "%s\n", buf[:n])
		return nil

	case "stats":
		fmt.Fprintf(sh.out, "prefix server %v: %d prefixes defined\n",
			sh.ws.Prefix.PID(), len(sh.ws.Prefix.Bindings()))
		fmt.Fprintf(sh.out, "virtual time: %s\n", vtime.Milliseconds(s.Proc().Now()))
		// Live registry snapshot — the same renderer vstat uses, so the
		// shell and the exposition tool print the same numbers.
		s.Proc().Kernel().Metrics().Snapshot().WriteText(sh.out)
		return nil

	case "time":
		// The paper's time client stub: GetPid(time service) on every call,
		// then one transaction (§4.2).
		now, err := timeserver.GetTime(s.Proc())
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "virtual time: %s (time server)\n", vtime.Milliseconds(vtime.Time(now)))
		return nil

	default:
		return fmt.Errorf("unknown command (try help)")
	}
}

// service parses a service by the name its String method gives it.
func service(name string) (kernel.Service, error) {
	for svc := kernel.ServiceStorage; svc <= kernel.ServiceNameServer; svc++ {
		if svc.String() == name {
			return svc, nil
		}
	}
	return 0, fmt.Errorf("unknown service %q", name)
}
