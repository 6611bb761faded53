package rig

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/termserver"
	"repro/internal/timeserver"
	"repro/internal/trace"
	"repro/internal/vio"
)

// uniformRow is one CSNH server of the uniform table: where the script
// lists (dir, from the server's root), an object bound there (obj), and
// the name OpGetInstanceName reports for the directory (opened; empty
// means the name it was opened by). use is what only this server does,
// done once by a client under a tag no other use shares; count, if set,
// reads the tally each use adds exactly one to; traced, if set, asserts
// what a use's spans must show beyond the invariants every row shares.
type uniformRow struct {
	label            string
	pid              kernel.PID
	dir, obj, opened string
	team             bool
	use              func(p *kernel.Process, tag string) error
	count            func(t *testing.T, p *kernel.Process) int
	traced           func(t *testing.T, spans []trace.Span)
}

// bootUniform boots the paper testbed the uniform legs run on: fs1 and
// fs2 are teams of two, so the file server's row crosses a handoff.
func bootUniform(t *testing.T, traced bool) *Rig {
	t.Helper()
	cfg := DefaultConfig()
	cfg.FileServerTeam, cfg.Trace = 2, traced
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// transact is one protocol request to server, its name relative to the
// server's root context; a failure reply is an error.
func transact(p *kernel.Process, server kernel.PID, op proto.Code, name string, mode uint32) (*proto.Message, error) {
	req := &proto.Message{Op: op}
	proto.SetCSName(req, uint32(core.CtxDefault), name)
	proto.SetOpenMode(req, mode)
	return core.Transact(p, server, req)
}

// open opens name on server as a file.
func open(p *kernel.Process, server kernel.PID, name string, mode uint32) (*vio.File, error) {
	reply, err := transact(p, server, proto.OpCreateInstance, name, mode)
	if err != nil {
		return nil, err
	}
	return new(vio.File).Init(p, server, proto.GetInstanceInfo(reply)), nil
}

// echo writes msg to f and reads it back from the start.
func echo(f *vio.File, msg string) error {
	if _, err := f.Write([]byte(msg)); err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	buf := make([]byte, 64)
	if n, err := f.Read(buf); err != nil || string(buf[:n]) != msg {
		return fmt.Errorf("read back %q, %v; want %q", buf[:n], err, msg)
	}
	return nil
}

// listed counts the records of dir on server, each of which must have an
// object id of its own.
func listed(server kernel.PID, dir string) func(*testing.T, *kernel.Process) int {
	return func(t *testing.T, p *kernel.Process) int {
		t.Helper()
		f, err := open(p, server, dir, proto.ModeRead|proto.ModeDirectory)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		raw, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		records, err := proto.DecodeDescriptors(raw)
		if err != nil {
			t.Fatal(err)
		}
		ids := make(map[uint32]string, len(records))
		for _, d := range records {
			if other, dup := ids[d.ObjectID]; dup {
				t.Fatalf("%q and %q share object id %d", other, d.Name, d.ObjectID)
			}
			ids[d.ObjectID] = d.Name
		}
		return len(records)
	}
}

// uniformTable is every CSNH server rig.New boots — the six flat servers,
// the time server, a file server and the prefix server — with the client
// that drives it from the first workstation.
func uniformTable(r *Rig) []uniformRow {
	ws := r.WS[0]
	const mailbox = "mann@v.stanford.edu"
	return []uniformRow{
		{label: "[tty]", pid: ws.Term.PID(), obj: "vgt1",
			// A new terminal per use: the listing's ids stay distinct.
			use: func(p *kernel.Process, tag string) error {
				f, err := open(p, ws.Term.PID(), termserver.CreateName, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
				if err != nil {
					return err
				}
				if _, err := f.Write([]byte("line " + tag + "\n")); err != nil {
					return err
				}
				return f.Close()
			},
			count: listed(ws.Term.PID(), "")},
		{label: "[exec]", pid: ws.Exec.PID(), obj: "hello.1",
			// A launch loads the image from the file server inside its serve.
			use: func(p *kernel.Process, _ string) error {
				reply, err := transact(p, ws.Exec.PID(), proto.OpExecProgram, "hello", 0)
				if err == nil && !strings.HasPrefix(string(reply.Segment), "hello.") {
					err = fmt.Errorf("launched %q", reply.Segment)
				}
				return err
			},
			count: listed(ws.Exec.PID(), ""),
			traced: func(t *testing.T, spans []trace.Span) {
				byID := make(map[trace.SpanID]trace.Span, len(spans))
				for _, s := range spans {
					byID[s.ID] = s
				}
				for _, s := range spans {
					if s.Kind != trace.KindSend {
						continue
					}
					for cur := s; cur.Parent != 0; cur = byID[cur.Parent] {
						if byID[cur.Parent].Kind == trace.KindServe {
							return
						}
					}
				}
				t.Error("no send nested inside a serve span: the image load is missing from the trace")
			}},
		{label: "[print]", pid: r.Print.PID(), obj: "paper.ps",
			// Every job spools: the queue lists it.
			use: func(p *kernel.Process, tag string) error {
				f, err := open(p, r.Print.PID(), "job-"+tag+".ps", proto.ModeWrite|proto.ModeCreate)
				if err != nil {
					return err
				}
				if _, err := f.Write([]byte("%!PS")); err != nil {
					return err
				}
				return f.Close()
			},
			count: listed(r.Print.PID(), "")},
		{label: "[tcp]tcp", pid: r.Inet.PID(), dir: "tcp", obj: "su-score.arpa:23",
			use: func(p *kernel.Process, tag string) error {
				f, err := open(p, r.Inet.PID(), "tcp/echo"+tag+".host:7", proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
				if err != nil {
					return err
				}
				return echo(f, "ping "+tag)
			},
			count: listed(r.Inet.PID(), "tcp")},
		{label: "[mail]", pid: r.Mail.PID(), obj: mailbox,
			use: func(p *kernel.Process, tag string) error {
				f, err := open(p, r.Mail.PID(), mailbox, proto.ModeWrite)
				if err != nil {
					return err
				}
				if _, err := f.Write([]byte("note " + tag)); err != nil {
					return err
				}
				return f.Close()
			},
			// The mailbox's description record counts its messages.
			count: func(t *testing.T, p *kernel.Process) int {
				reply, err := transact(p, r.Mail.PID(), proto.OpQueryObject, mailbox, 0)
				if err != nil {
					t.Fatal(err)
				}
				d, _, err := proto.DecodeDescriptor(reply.Segment)
				if err != nil {
					t.Fatal(err)
				}
				return int(d.TypeSpecific[0])
			}},
		{label: "[pipe]", pid: r.Pipe.PID(), obj: "ls-to-more",
			// Flow control: an empty open pipe answers Retry, a line written
			// is read whole, and once its writer closes the pipe drains to
			// end-of-file.
			use: func(p *kernel.Process, tag string) error {
				w, err := open(p, r.Pipe.PID(), "stream-"+tag, proto.ModeWrite|proto.ModeCreate)
				if err != nil {
					return err
				}
				rd, err := open(p, r.Pipe.PID(), "stream-"+tag, proto.ModeRead)
				if err != nil {
					return err
				}
				buf := make([]byte, 64)
				if _, err := rd.Read(buf); !errors.Is(err, proto.ErrRetry) {
					return fmt.Errorf("read of an empty pipe: %v, want Retry", err)
				}
				msg := "line " + tag + "\n"
				if _, err := w.Write([]byte(msg)); err != nil {
					return err
				}
				if n, err := rd.Read(buf); err != nil || string(buf[:n]) != msg {
					return fmt.Errorf("read %q, %v; want %q", buf[:n], err, msg)
				}
				if err := w.Close(); err != nil {
					return err
				}
				if _, err := rd.Seek(0, io.SeekStart); err != nil {
					return err
				}
				if _, err := rd.Read(buf); err != io.EOF {
					return fmt.Errorf("read of a drained, closed pipe: %v, want EOF", err)
				}
				return rd.Close()
			},
			count: listed(r.Pipe.PID(), "")},
		{label: "[time]", pid: r.Time.PID(), obj: "clock",
			use: func(p *kernel.Process, _ string) error {
				first, err := timeserver.GetTime(p)
				if err != nil {
					return err
				}
				if now, err := timeserver.GetTime(p); err != nil || now <= first {
					return fmt.Errorf("time went %d -> %d, %v", first, now, err)
				}
				return nil
			}},
		{label: "[storage]", pid: r.FS1.PID(), dir: "users/mann", obj: "welcome.txt", team: r.sc.FileServerTeam > 1,
			// A read, then a file of the use's own, which the directory's
			// listing — kept between changes — shows at once.
			use: func(p *kernel.Process, tag string) error {
				if _, err := transact(p, r.FS1.PID(), proto.OpQueryObject, "users/mann/welcome.txt", 0); err != nil {
					return err
				}
				f, err := open(p, r.FS1.PID(), "users/mann/welcome.txt", proto.ModeRead)
				if err != nil {
					return err
				}
				if got, err := f.ReadAll(); err != nil || string(got) != "Welcome to the V-System, mann.\n" {
					return fmt.Errorf("read %q, %v", got, err)
				}
				if err := f.Close(); err != nil {
					return err
				}
				w, err := open(p, r.FS1.PID(), "users/mann/note-"+tag, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
				if err != nil {
					return err
				}
				if err := echo(w, tag); err != nil {
					return err
				}
				if err := w.Close(); err != nil {
					return err
				}
				d, err := open(p, r.FS1.PID(), "users/mann", proto.ModeRead|proto.ModeDirectory)
				if err != nil {
					return err
				}
				defer d.Close()
				raw, err := d.ReadAll()
				if err != nil {
					return err
				}
				records, err := proto.DecodeDescriptors(raw)
				if err != nil {
					return err
				}
				for _, rec := range records {
					if rec.Name == "note-"+tag && rec.Size == uint32(len(tag)) {
						return nil
					}
				}
				return fmt.Errorf("note-%s is not in the listing %+v", tag, records)
			},
			count: listed(r.FS1.PID(), "users/mann"),
			// Each handoff is a span, and every forward hop — a
			// receptionist's to its worker, a prefix rewrite — parents under
			// the handoff or serve that made it.
			traced: func(t *testing.T, spans []trace.Span) {
				kinds := make(map[trace.SpanID]trace.Kind, len(spans))
				handoffs := 0
				for _, s := range spans {
					kinds[s.ID] = s.Kind
					if s.Kind == trace.KindHandoff {
						handoffs++
					}
				}
				if handoffs == 0 {
					t.Error("no handoff span through a team of two")
				}
				for _, s := range spans {
					if k := kinds[s.Parent]; s.Kind == trace.KindForward && k != trace.KindHandoff && k != trace.KindServe {
						t.Errorf("forward span %d parents under %v, want a handoff or serve", s.ID, k)
					}
				}
			}},
		{label: "prefix server", pid: ws.Prefix.PID(), obj: "home", opened: "[]",
			// A prefixed query is rewritten and forwarded: the target answers.
			use: func(p *kernel.Process, _ string) error {
				_, err := transact(p, ws.Prefix.PID(), proto.OpQueryObject, "[home]welcome.txt", 0)
				return err
			},
			count: func(*testing.T, *kernel.Process) int { return int(ws.Prefix.Stats().Forwards) },
			traced: func(t *testing.T, spans []trace.Span) {
				for _, s := range spans {
					if s.Kind == trace.KindReply && s.Err == "" && s.Host != r.FS1Host.Name() {
						t.Errorf("reply span %d from host %q, want the rewrite target %q", s.ID, s.Host, r.FS1Host.Name())
					}
				}
			}},
	}
}

// serveCounts reads the registry's serve series of the server labelled
// name: the requests it answered or forwarded, and its team's handoffs.
func serveCounts(r *Rig, name string) (requests, handoffs uint64) {
	for _, c := range r.Metrics.Snapshot().Counters {
		if c.Labels.Server != name {
			continue
		}
		switch c.Name {
		case "server_requests_total", "server_forwarded_total":
			requests += c.Value
		case "server_handoffs_total":
			handoffs += c.Value
		}
	}
	return requests, handoffs
}

// exercise runs row.use uses times on each of clients, one goroutine a
// client, and checks what the uses add up to: count grew by one a use, and
// a team handed off every request it took while a single process handed
// off none.
func exercise(t *testing.T, r *Rig, row uniformRow, clients []*kernel.Process, uses int) {
	t.Helper()
	host := r.Kernel.HostByID(row.pid.Host())
	proc, err := host.ProcessByPID(row.pid)
	if err != nil {
		t.Fatal(err)
	}
	requests, handoffs := serveCounts(r, proc.Name())
	before := 0
	if row.count != nil {
		before = row.count(t, clients[0])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for c, p := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < uses && errs[c] == nil; i++ {
				errs[c] = row.use(p, fmt.Sprintf("%d-%d", c, i))
			}
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
	if row.count != nil {
		if got, want := row.count(t, clients[0]), before+len(clients)*uses; got != want {
			t.Errorf("tally %d after %d uses, want %d", got, len(clients)*uses, want)
		}
	}
	dr, dh := serveCounts(r, proc.Name())
	dr, dh = dr-requests, dh-handoffs
	if !row.team {
		dr = 0
	}
	if dh != dr {
		t.Errorf("%d handoffs for %d requests (team %v)", dh, dr, row.team)
	}
}

// TestProtocolIsUniform runs one script against every CSNH server, traced,
// and asserts the same answers from each: the protocol is uniform (§6),
// asserted once. Requests go straight to each server's pid, names
// relative to its root context. Then each server's own use runs once,
// and its spans must show a serve on the server's host, wire frames when
// that host is not the client's, and the row's own anatomy; every row
// ends in trace.Check over the whole trace.
func TestProtocolIsUniform(t *testing.T) {
	r := bootUniform(t, true)
	ws := r.WS[0]
	s := ws.Session
	client := s.Proc()

	// One object per transient-object server; the rest are bound at boot.
	for _, seed := range []struct {
		name string
		mode uint32
	}{
		{"[tty]new", proto.ModeRead | proto.ModeWrite | proto.ModeCreate},
		{"[print]paper.ps", proto.ModeWrite | proto.ModeCreate},
		{"[tcp]tcp/su-score.arpa:23", proto.ModeRead | proto.ModeWrite | proto.ModeCreate},
		{"[pipe]ls-to-more", proto.ModeWrite | proto.ModeCreate},
	} {
		f, err := s.Open(seed.name, seed.mode)
		if err != nil {
			t.Fatalf("seed %s: %v", seed.name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("seed %s: %v", seed.name, err)
		}
	}
	if _, err := transact(client, ws.Exec.PID(), proto.OpExecProgram, "hello", 0); err != nil {
		t.Fatalf("seed exec: %v", err)
	}

	for _, srv := range uniformTable(r) {
		t.Run(srv.label, func(t *testing.T) {
			in := func(name string) string {
				if srv.dir == "" {
					return name
				}
				return srv.dir + "/" + name
			}
			send := func(op proto.Code, name string, prepare func(*proto.Message)) (*proto.Message, time.Duration) {
				t.Helper()
				req := &proto.Message{Op: op}
				if op.IsCSNameOp() {
					proto.SetCSName(req, uint32(core.CtxDefault), name)
				}
				if prepare != nil {
					prepare(req)
				}
				start := client.Now()
				reply, err := client.Send(req, srv.pid)
				if err != nil {
					t.Fatalf("%v %q: %v", op, name, err)
				}
				return reply, client.Now() - start
			}
			wantCode := func(what string, reply *proto.Message, want proto.Code) {
				t.Helper()
				if reply.Op != want {
					t.Errorf("%s = %v, want %v", what, reply.Op, want)
				}
			}
			// list opens the directory with a pattern and reads it.
			list := func(pattern string) ([]proto.Descriptor, *proto.Message, time.Duration) {
				t.Helper()
				reply, rtt := send(proto.OpCreateInstance, srv.dir, func(m *proto.Message) {
					proto.SetOpenMode(m, proto.ModeRead|proto.ModeDirectory)
					proto.SetDirPattern(m, pattern)
				})
				if reply.Op != proto.ReplyOK {
					t.Fatalf("directory open with pattern %q = %v", pattern, reply.Op)
				}
				f := new(vio.File).Init(client, srv.pid, proto.GetInstanceInfo(reply))
				raw, err := f.ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				records, err := proto.DecodeDescriptors(raw)
				if err != nil {
					t.Fatal(err)
				}
				return records, reply, rtt
			}

			// The open reply names the owner; the instance knows its name.
			all, reply, _ := list("")
			if got := kernel.PID(proto.InstanceOwner(reply)); got != srv.pid {
				t.Errorf("instance owner = %v, want %v", got, srv.pid)
			}
			nameReply, _ := send(proto.OpGetInstanceName, "", func(m *proto.Message) {
				m.F[0] = uint32(proto.GetInstanceInfo(reply).ID)
			})
			opened := srv.opened
			if opened == "" {
				opened = srv.dir
			}
			if nameReply.Op != proto.ReplyOK || string(nameReply.Segment) != opened {
				t.Errorf("instance name = %v %q, want %q", nameReply.Op, nameReply.Segment, opened)
			}
			found := false
			for _, d := range all {
				found = found || d.Name == srv.obj
			}
			if !found {
				t.Errorf("listing %+v lacks %q", all, srv.obj)
			}

			// A pattern selects; the charge is per selected record, so
			// listing N costs exactly N fabrications more than listing
			// none (the two requests are the same size).
			one, _, _ := list(srv.obj)
			if len(one) != 1 || one[0].Name != srv.obj {
				t.Errorf("pattern %q selected %+v", srv.obj, one)
			}
			everything, _, full := list("**")
			nothing, _, empty := list("\x01\x01")
			if len(everything) != len(all) || len(nothing) != 0 {
				t.Errorf("patterns selected %d and %d of %d", len(everything), len(nothing), len(all))
			}
			if want := time.Duration(len(all)) * r.Model.DescriptorFabricateCost; full-empty != want {
				t.Errorf("listing %d records cost %v more than listing none, want %v", len(all), full-empty, want)
			}

			malformed, _ := send(proto.OpCreateInstance, srv.dir, func(m *proto.Message) {
				proto.SetOpenMode(m, proto.ModeRead|proto.ModeDirectory)
				m.F[5] = 1 << 20 // a pattern longer than the segment
			})
			wantCode("malformed pattern", malformed, proto.ReplyBadArgs)

			notCtx, _ := send(proto.OpCreateInstance, in(srv.obj), func(m *proto.Message) {
				proto.SetOpenMode(m, proto.ModeRead|proto.ModeDirectory)
			})
			wantCode("directory open of an object", notCtx, proto.ReplyNotAContext)

			query, _ := send(proto.OpQueryObject, in(srv.obj), nil)
			wantCode("query", query, proto.ReplyOK)
			if d, _, err := proto.DecodeDescriptor(query.Segment); err != nil || d.Name != srv.obj {
				t.Errorf("query descriptor = %+v, %v", d, err)
			}
			unbound := in("no-such-" + strings.Trim(srv.label, "[]"))
			q, _ := send(proto.OpQueryObject, unbound, nil)
			wantCode("query of an unbound name", q, proto.ReplyNotFound)
			rm, _ := send(proto.OpRemoveObject, unbound, nil)
			wantCode("remove of an unbound name", rm, proto.ReplyNotFound)

			unknown, _ := send(proto.Code(0x7f00), "", nil)
			wantCode("unknown op", unknown, proto.ReplyIllegalRequest)

			// The server's own use, traced.
			var mark trace.SpanID
			for _, sp := range r.Tracer.Snapshot() {
				mark = max(mark, sp.ID)
			}
			exercise(t, r, srv, []*kernel.Process{client}, 1)
			var spans []trace.Span
			served, wire := false, 0
			host := r.Kernel.HostByID(srv.pid.Host()).Name()
			for _, sp := range r.Tracer.Snapshot() {
				if sp.ID <= mark {
					continue
				}
				spans = append(spans, sp)
				served = served || (sp.Kind == trace.KindServe && sp.Host == host)
				if sp.Kind == trace.KindWire {
					wire++
				}
			}
			if !served {
				t.Errorf("no serve span on %s", host)
			}
			if host != ws.Host.Name() && wire < 2 {
				t.Errorf("%d wire spans to and from %s, want at least 2", wire, host)
			}
			if srv.traced != nil {
				srv.traced(t, spans)
			}
			if err := r.CheckTrace(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestProtocolIsUniformConcurrent is the race leg of the same table:
// server by server, several client processes, each on its own goroutine
// and host, run the row's use at once; run it under -race.
func TestProtocolIsUniformConcurrent(t *testing.T) {
	r := bootUniform(t, false)
	clients := make([]*kernel.Process, 4)
	for c := range clients {
		p, err := r.Kernel.NewHost(fmt.Sprintf("remote%d", c)).NewProcess("client")
		if err != nil {
			t.Fatal(err)
		}
		clients[c] = p
	}
	for _, srv := range uniformTable(r) {
		t.Run(srv.label, func(t *testing.T) { exercise(t, r, srv, clients, 3) })
	}
}

// TestFlatInstanceModes: the modes each flat server's instance grants,
// whatever the open asked for, as Query reports them with the 512-byte
// block, and an operation outside them refused with ModeNotSupported.
func TestFlatInstanceModes(t *testing.T) {
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := r.WS[0].Session
	// A job spooled and released, to be reopened.
	f, err := s.Open("[print]done.ps", proto.ModeWrite|proto.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("%!PS")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	const rw = proto.ModeRead | proto.ModeWrite
	for _, c := range []struct {
		name        string
		mode, flags uint32
	}{
		{"[print]new.ps", proto.ModeWrite | proto.ModeCreate, proto.ModeWrite},
		{"[print]done.ps", proto.ModeRead, proto.ModeRead},
		{"[pipe]modes", proto.ModeWrite | proto.ModeCreate, rw},
		{"[tty]" + termserver.CreateName, proto.ModeRead | proto.ModeCreate, rw},
		{"[mail]mann@v.stanford.edu", proto.ModeRead, rw},
		{"[tcp]tcp/modes.host:7", proto.ModeWrite | proto.ModeCreate, rw},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := s.Open(c.name, c.mode)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			info, err := f.Query()
			if err != nil {
				t.Fatal(err)
			}
			if info.Flags != c.flags || info.BlockSize != vio.DefaultBlockSize {
				t.Fatalf("flags %#x, block %d; want %#x, %d", info.Flags, info.BlockSize, c.flags, vio.DefaultBlockSize)
			}
			if c.flags&proto.ModeRead == 0 {
				if _, err := f.Read(make([]byte, 8)); !errors.Is(err, proto.ErrModeNotSupported) {
					t.Errorf("read = %v, want ModeNotSupported", err)
				}
			}
			if c.flags&proto.ModeWrite == 0 {
				if _, err := f.Write([]byte("x")); !errors.Is(err, proto.ErrModeNotSupported) {
					t.Errorf("write = %v, want ModeNotSupported", err)
				}
			}
		})
	}
}

// TestFlatWritePastMaxFileSizeRefused: one write whose bytes would take a
// terminal screen, a mailbox or a connection's inbox past
// vio.MaxFileSize is refused with NoServerResources, and the object keeps
// the size it had.
func TestFlatWritePastMaxFileSizeRefused(t *testing.T) {
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := r.WS[0].Session
	huge := make([]byte, vio.MaxFileSize+1)
	for _, c := range []struct {
		name string
		mode uint32
	}{
		{"[tty]" + termserver.CreateName, proto.ModeRead | proto.ModeCreate},
		{"[mail]mann@v.stanford.edu", proto.ModeRead},
		{"[tcp]tcp/huge.host:7", proto.ModeWrite | proto.ModeCreate},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := s.Open(c.name, c.mode)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			before, err := f.Query()
			if err != nil {
				t.Fatal(err)
			}
			write := &proto.Message{Op: proto.OpWriteInstance, Segment: huge}
			write.F[0] = uint32(f.InstanceID())
			reply, err := s.Proc().Send(write, f.Server())
			if err != nil {
				t.Fatal(err)
			}
			if reply.Op != proto.ReplyNoServerResources {
				t.Errorf("a write of %d bytes = %v, want NoServerResources", len(huge), reply.Op)
			}
			if after, err := f.Query(); err != nil || after.SizeBytes != before.SizeBytes {
				t.Errorf("the refused write left %d bytes, %d before (%v)", after.SizeBytes, before.SizeBytes, err)
			}
		})
	}
}
