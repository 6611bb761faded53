package rig

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vio"
)

// TestProtocolIsUniform runs one script against every CSNH server rig.New
// boots — the six flat servers, the time server, a file server and the
// prefix server — and asserts the same answers from each: the protocol
// is uniform (§6), asserted once. Requests go straight to each server's
// pid, names relative to its root context.
func TestProtocolIsUniform(t *testing.T) {
	r := boot(t)
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
	exec := &proto.Message{Op: proto.OpExecProgram}
	proto.SetCSName(exec, 0, "hello")
	if _, err := core.Transact(client, ws.Exec.PID(), exec); err != nil {
		t.Fatalf("seed exec: %v", err)
	}

	for _, srv := range []struct {
		label string
		pid   kernel.PID
		dir   string // the context to list, from the server's root
		obj   string // a non-context object bound in it
		// opened is the name OpGetInstanceName reports for the directory;
		// empty means the name it was opened by.
		opened string
	}{
		{label: "[tty]", pid: ws.Term.PID(), obj: "vgt1"},
		{label: "[exec]", pid: ws.Exec.PID(), obj: "hello.1"},
		{label: "[print]", pid: r.Print.PID(), obj: "paper.ps"},
		{label: "[tcp]tcp", pid: r.Inet.PID(), dir: "tcp", obj: "su-score.arpa:23"},
		{label: "[mail]", pid: r.Mail.PID(), obj: "mann@v.stanford.edu"},
		{label: "[pipe]", pid: r.Pipe.PID(), obj: "ls-to-more"},
		{label: "[time]", pid: r.Time.PID(), obj: "clock"},
		{label: "[storage]", pid: r.FS1.PID(), dir: "users/mann", obj: "welcome.txt"},
		{label: "prefix server", pid: ws.Prefix.PID(), obj: "home", opened: "[]"},
	} {
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
				f := vio.NewFile(client, srv.pid, proto.GetInstanceInfo(reply))
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
		})
	}
}
