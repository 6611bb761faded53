package mailserver

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vio"
	"repro/internal/vtime"
)

func startRig(t *testing.T) (*Server, *kernel.Process) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	host := k.NewHost("services")
	s, err := Start(host)
	if err != nil {
		t.Fatal(err)
	}
	clientHost := k.NewHost("ws")
	client, err := clientHost.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Destroy() })
	return s, client
}

// messages reads a mailbox's message count from its description record,
// one OpQueryObject transaction.
func messages(client *kernel.Process, s *Server, address string) (int, error) {
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), address)
	reply, err := client.Send(q, s.PID())
	if err != nil {
		return 0, err
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		return 0, err
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	return int(d.TypeSpecific[0]), err
}

func TestValidAddress(t *testing.T) {
	good := []string{"cheriton@su-score.ARPA", "a@b", "mann@v.stanford.edu"}
	bad := []string{"", "noat", "@host", "user@", "two@@signs", "a@b@c"}
	for _, a := range good {
		if !ValidAddress(a) {
			t.Errorf("ValidAddress(%q) = false", a)
		}
	}
	for _, a := range bad {
		if ValidAddress(a) {
			t.Errorf("ValidAddress(%q) = true", a)
		}
	}
}

func TestValidAddressProperty(t *testing.T) {
	// Property: a valid address has exactly one '@' with non-empty sides.
	f := func(local, domain string) bool {
		local = strings.ReplaceAll(local, "@", "")
		domain = strings.ReplaceAll(domain, "@", "")
		addr := local + "@" + domain
		return ValidAddress(addr) == (local != "" && domain != "")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddMailboxValidation(t *testing.T) {
	s, _ := startRig(t)
	if err := s.AddMailbox("bad-address"); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if err := s.AddMailbox("a@b"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddMailbox("a@b"); !errors.Is(err, proto.ErrDuplicateName) {
		t.Fatalf("err = %v", err)
	}
}

func openBox(t *testing.T, client *kernel.Process, s *Server, addr string, mode uint32) *vio.File {
	t.Helper()
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), addr)
	proto.SetOpenMode(req, mode)
	reply, err := client.Send(req, s.PID())
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		t.Fatalf("open %q: %v", addr, err)
	}
	return new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply))
}

func TestDeliverAndRead(t *testing.T) {
	s, client := startRig(t)
	if err := s.AddMailbox("mann@v"); err != nil {
		t.Fatal(err)
	}
	f := openBox(t, client, s, "mann@v", proto.ModeWrite)
	if _, err := f.Write([]byte("message one")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("message two")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := messages(client, s, "mann@v")
	if err != nil || n != 2 {
		t.Fatalf("count = %d, %v", n, err)
	}
	r := openBox(t, client, s, "mann@v", proto.ModeRead)
	got, err := r.ReadAll()
	if err != nil || string(got) != "message one\nmessage two\n" {
		t.Fatalf("read %q, %v", got, err)
	}
}

func TestWholeAddressIsOneComponent(t *testing.T) {
	// The mail server interprets whole addresses; the dots inside are
	// opaque to the protocol (§5.4 lets servers interpret names any way
	// they choose).
	s, client := startRig(t)
	if err := s.AddMailbox("deep.name@many.dots.example"); err != nil {
		t.Fatal(err)
	}
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "deep.name@many.dots.example")
	reply, err := client.Send(q, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("query = %v, %v", reply, err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil || d.Tag != proto.TagMailbox || d.Name != "deep.name@many.dots.example" {
		t.Fatalf("descriptor = %+v, %v", d, err)
	}
}

func TestCreateOnOpen(t *testing.T) {
	s, client := startRig(t)
	f := openBox(t, client, s, "new@box", proto.ModeWrite|proto.ModeCreate)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := messages(client, s, "new@box"); err != nil {
		t.Fatal(err)
	}
	// Creating with an invalid address fails.
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "invalid")
	proto.SetOpenMode(req, proto.ModeWrite|proto.ModeCreate)
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyBadArgs {
		t.Fatalf("reply = %v, %v", reply, err)
	}
}

func TestRemoveMailbox(t *testing.T) {
	s, client := startRig(t)
	if err := s.AddMailbox("gone@soon"); err != nil {
		t.Fatal(err)
	}
	rm := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(rm, uint32(core.CtxDefault), "gone@soon")
	reply, err := client.Send(rm, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("remove = %v, %v", reply, err)
	}
	if _, err := messages(client, s, "gone@soon"); err == nil {
		t.Fatal("mailbox survived removal")
	}
}

func TestDirectorySortedByAddress(t *testing.T) {
	s, client := startRig(t)
	for _, a := range []string{"zeta@z", "alpha@a", "mid@m"} {
		if err := s.AddMailbox(a); err != nil {
			t.Fatal(err)
		}
	}
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "")
	proto.SetOpenMode(req, proto.ModeRead|proto.ModeDirectory)
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	f := new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply))
	raw, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	records, err := proto.DecodeDescriptors(raw)
	if err != nil || len(records) != 3 {
		t.Fatalf("records = %v, %v", records, err)
	}
	want := []string{"alpha@a", "mid@m", "zeta@z"}
	for i := range want {
		if records[i].Name != want[i] {
			t.Fatalf("records[%d] = %q", i, records[i].Name)
		}
	}
}

func TestBadContextRejected(t *testing.T) {
	s, client := startRig(t)
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 42, "a@b")
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyBadContext {
		t.Fatalf("reply = %v, %v", reply, err)
	}
}

// TestReadingAMailboxAllocatesLinearly delivers 200 messages of 511
// bytes and reads the mailbox back block by block: the server serves the
// bytes it stores, so the whole read allocates at most twice what it
// returns.
func TestReadingAMailboxAllocatesLinearly(t *testing.T) {
	s, client := startRig(t)
	w := openBox(t, client, s, "bulk@box", proto.ModeWrite|proto.ModeCreate)
	msg := make([]byte, 511)
	for i := 0; i < 200; i++ {
		// From offset 0 each time, so that no message straddles a block
		// and splits into two writes.
		if _, err := w.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := messages(client, s, "bulk@box"); err != nil || n != 200 {
		t.Fatalf("messages = %d, %v", n, err)
	}
	r := openBox(t, client, s, "bulk@box", proto.ModeRead)
	buf := make([]byte, vio.DefaultBlockSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read := 0
	for {
		n, err := r.Read(buf)
		read += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if read != 200*512 {
		t.Fatalf("read %d bytes, want %d", read, 200*512)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*uint64(read) {
		t.Fatalf("reading %d bytes allocated %d", read, alloc)
	}
}

// TestMailboxQuerySizeMatchesInstance: a mailbox's description record and
// an open instance of it report one size, the bytes a reader gets — 200
// messages of 511 bytes, each with its newline, are 102,400 both ways.
func TestMailboxQuerySizeMatchesInstance(t *testing.T) {
	s, client := startRig(t)
	w := openBox(t, client, s, "bulk@box", proto.ModeWrite|proto.ModeCreate)
	msg := make([]byte, 511)
	for i := 0; i < 200; i++ {
		if _, err := w.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "bulk@box")
	reply, err := client.Send(q, s.PID())
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil {
		t.Fatal(err)
	}
	r := openBox(t, client, s, "bulk@box", proto.ModeRead)
	defer r.Close()
	info, err := r.Query()
	if err != nil {
		t.Fatal(err)
	}
	if d.Size != 200*512 || info.SizeBytes != 200*512 {
		t.Fatalf("query reports %d bytes, an open instance %d; want %d both ways", d.Size, info.SizeBytes, 200*512)
	}
}
