package proto

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/raceflag"
)

func TestMessageHeaderIs32Bytes(t *testing.T) {
	if n := (&Message{Op: OpEcho}).WireSize(); n != 32 {
		t.Fatalf("segmentless message = %d bytes on the wire, want the V kernel's 32", n)
	}
	if n := (&Message{Op: OpEcho, Segment: []byte("hello")}).WireSize(); n != 37 {
		t.Fatalf("5-byte segment message = %d bytes on the wire, want 37", n)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := &Message{Op: OpEcho, Segment: []byte("abc")}
	c := m.Clone()
	c.Segment[0] = 'z'
	if m.Segment[0] != 'a' {
		t.Fatal("Clone must copy the segment")
	}
}

func TestCSNameFields(t *testing.T) {
	m := &Message{Op: OpQueryObject}
	SetCSName(m, 7, "a/b/c")
	name, idx, err := CSName(m)
	if err != nil {
		t.Fatal(err)
	}
	if name != "a/b/c" || idx != 0 || CSNameContext(m) != 7 {
		t.Fatalf("got name=%q idx=%d ctx=%d", name, idx, CSNameContext(m))
	}
	RewriteCSName(m, 9, 2)
	name, idx, err = CSName(m)
	if err != nil {
		t.Fatal(err)
	}
	if name != "a/b/c" || idx != 2 || CSNameContext(m) != 9 {
		t.Fatalf("after rewrite: name=%q idx=%d ctx=%d", name, idx, CSNameContext(m))
	}
}

// TestCSNameBorrowsSegment: CSName reads the name where it lies — a
// view of the request's segment, allocating nothing — so a write into
// the segment shows through it; RenameNewName and DirPattern read theirs
// the same way.
func TestCSNameBorrowsSegment(t *testing.T) {
	m := &Message{Op: OpRenameObject}
	SetCSName(m, 0, "users/mann/old")
	AppendNewName(m, "users/mann/new")
	var name string
	if !raceflag.Enabled {
		if allocs := testing.AllocsPerRun(1000, func() { name, _, _ = CSName(m) }); allocs != 0 {
			t.Fatalf("CSName allocates %v times, want 0", allocs)
		}
	}
	name, _, _ = CSName(m)
	newName, err := RenameNewName(m)
	if err != nil {
		t.Fatal(err)
	}
	if !Borrows(m, name) || !Borrows(m, newName) || Borrows(m, strings.Clone(name)) || Borrows(m, "") {
		t.Fatal("Borrows does not tell the segment's names from a copy")
	}
	m.Segment[0] = 'U'
	if name != "Users/mann/old" {
		t.Fatalf("name after a write into the segment = %q: not a view of it", name)
	}

	d := &Message{Op: OpCreateInstance}
	SetCSName(d, 0, "dir")
	SetDirPattern(d, "f*")
	if pattern, err := DirPattern(d); err != nil || pattern != "f*" || !Borrows(d, pattern) {
		t.Fatalf("DirPattern = %q, %v; a view %v", pattern, err, Borrows(d, pattern))
	}
}

// TestSetNameFaultReadsItsOwnSegment: a fault's component may be a view
// of the message the fault is written into; it is copied out first.
func TestSetNameFaultReadsItsOwnSegment(t *testing.T) {
	m := &Message{Op: OpQueryObject}
	SetCSName(m, 0, "users/mann/missing")
	name, _, _ := CSName(m)
	last := name[len("users/mann/"):]
	m.Op = ReplyNotFound
	SetNameFault(m, len("users/mann/"), 7, last)
	if idx, server, component, ok := NameFault(m); !ok || idx != 11 || server != 7 || component != "missing" {
		t.Fatalf("NameFault = %d %d %q %v", idx, server, component, ok)
	}
}

func TestCSNameBadFields(t *testing.T) {
	m := &Message{Op: OpQueryObject}
	SetCSName(m, 0, "abc")
	m.F[2] = 99 // length beyond segment
	if _, _, err := CSName(m); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("bad length err = %v", err)
	}
	SetCSName(m, 0, "abc")
	m.F[1] = 10 // index beyond length
	if _, _, err := CSName(m); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("bad index err = %v", err)
	}
}

func TestCSNameArbitraryBytes(t *testing.T) {
	// CSnames are byte sequences; arbitrary bytes including NUL and
	// non-ASCII must survive (§5.1).
	f := func(raw []byte) bool {
		if len(raw) > 1024 {
			raw = raw[:1024]
		}
		m := &Message{Op: OpQueryObject}
		SetCSName(m, 1, string(raw))
		name, _, err := CSName(m)
		return err == nil && name == string(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRenameNames(t *testing.T) {
	m := &Message{Op: OpRenameObject}
	SetCSName(m, 3, "old/name")
	AppendNewName(m, "new-name")
	oldName, _, err := CSName(m)
	if err != nil {
		t.Fatal(err)
	}
	newName, err := RenameNewName(m)
	if err != nil {
		t.Fatal(err)
	}
	if oldName != "old/name" || newName != "new-name" {
		t.Fatalf("got %q -> %q", oldName, newName)
	}
}

func TestRenameNewNameTruncated(t *testing.T) {
	m := &Message{Op: OpRenameObject}
	SetCSName(m, 3, "old")
	AppendNewName(m, "new")
	m.F[3] = 50
	if _, err := RenameNewName(m); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("truncated rename err = %v", err)
	}
}

func TestAddContextTargets(t *testing.T) {
	m := &Message{Op: OpAddContextName}
	SetAddContextTarget(m, 0xAABBCCDD, 42)
	dyn, pid, ctx := AddContextTarget(m)
	if dyn || pid != 0xAABBCCDD || ctx != 42 {
		t.Fatalf("static target decoded as dyn=%v pid=%x ctx=%d", dyn, pid, ctx)
	}
	SetAddContextDynamicTarget(m, 5, 0xFFFF0002)
	dyn, svc, wctx := AddContextTarget(m)
	if !dyn || svc != 5 || wctx != 0xFFFF0002 {
		t.Fatalf("dynamic target decoded as dyn=%v svc=%d ctx=%x", dyn, svc, wctx)
	}
	// Re-setting static clears the dynamic flag.
	SetAddContextTarget(m, 1, 2)
	if dyn, _, _ := AddContextTarget(m); dyn {
		t.Fatal("static target must clear the dynamic flag")
	}
}

func TestInstanceInfoRoundTrip(t *testing.T) {
	f := func(id uint16, size, bs, flags uint32) bool {
		m := NewReply(ReplyOK)
		SetInstanceInfo(m, InstanceInfo{ID: id, SizeBytes: size, BlockSize: bs, Flags: flags})
		got := GetInstanceInfo(m)
		return got.ID == id && got.SizeBytes == size && got.BlockSize == bs && got.Flags == flags
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapContextReplyRoundTrip(t *testing.T) {
	m := NewReply(ReplyOK)
	SetMapContextReply(m, 0x00020005, 77)
	pid, ctx := GetMapContextReply(m)
	if pid != 0x00020005 || ctx != 77 {
		t.Fatalf("got pid=%x ctx=%d", pid, ctx)
	}
}

func TestIsCSNameOp(t *testing.T) {
	for _, c := range []Code{OpMapContext, OpQueryObject, OpModifyObject, OpRemoveObject,
		OpRenameObject, OpAddContextName, OpDeleteContextName, OpCreateInstance,
		OpLoadProgram, OpExecProgram} {
		if !c.IsCSNameOp() {
			t.Errorf("%v should be a CSname op", c)
		}
	}
	for _, c := range []Code{OpReadInstance, OpEcho, OpGetContextName, ReplyOK, OpNSLookup} {
		if c.IsCSNameOp() {
			t.Errorf("%v should not be a CSname op", c)
		}
	}
}

// TestIsReply pins the code space: replies below 0x0100, requests from it.
func TestIsReply(t *testing.T) {
	for _, c := range []Code{ReplyOK, ReplyNotFound, ReplyRetry} {
		if c >= 0x0100 {
			t.Errorf("reply %v is in the request range", c)
		}
	}
	for _, c := range []Code{OpMapContext, OpEcho, OpCreateInstance} {
		if c < 0x0100 {
			t.Errorf("request %v is in the reply range", c)
		}
	}
}

func TestReplyErrorMapping(t *testing.T) {
	if ReplyError(ReplyOK) != nil {
		t.Fatal("ReplyOK must map to nil error")
	}
	if !errors.Is(ReplyError(ReplyNotFound), ErrNotFound) {
		t.Fatal("ReplyNotFound must map to ErrNotFound")
	}
	if err := ReplyError(Code(0xFF)); !errors.Is(err, ErrIllegalRequest) {
		t.Fatalf("unknown reply code err = %v", err)
	}
}

func TestErrorReplyInverse(t *testing.T) {
	// Property: ErrorReply inverts ReplyError for all standard codes.
	for code, e := range replyErrors {
		if e == nil {
			continue
		}
		if got := ErrorReply(ReplyError(Code(code))); got != Code(code) {
			t.Errorf("ErrorReply(ReplyError(%v)) = %v", Code(code), got)
		}
	}
	// An error wrapping two standard errors maps to the lower code, on
	// every call: the table is read in code order, never in a map's.
	joined := errors.Join(ErrTimeout, ErrNotFound)
	for i := 0; i < 100; i++ {
		if got := ErrorReply(joined); got != ReplyNotFound {
			t.Fatalf("call %d: ErrorReply(%v) = %v, want %v", i, joined, got, ReplyNotFound)
		}
	}
	if ErrorReply(nil) != ReplyOK {
		t.Fatal("ErrorReply(nil) must be ReplyOK")
	}
	if ErrorReply(errors.New("mystery")) != ReplyIllegalRequest {
		t.Fatal("unknown errors must map to ReplyIllegalRequest")
	}
}

func TestCodeString(t *testing.T) {
	if OpCreateInstance.String() != "CreateInstance" {
		t.Fatalf("String = %q", OpCreateInstance.String())
	}
	// The table String indexes is built from codeNames: every entry must
	// come back out of it.
	for c, want := range codeNames {
		if got := c.String(); got != want {
			t.Errorf("Code(%#04x).String() = %q, want %q", uint16(c), got, want)
		}
	}
	// Codes nobody named — zero, the gap after each range's last code, a
	// range's far end, the first range past the table, the last code of
	// all — print their value.
	for _, c := range []Code{0, ReplyRetry + 1, 0x00ff, OpLinkObject + 1, OpCacheInvalidate + 1,
		OpRemoveByUID + 1, 0x03ff, 0x0400, 0x0401, 0x7777, 0xffff} {
		if _, named := codeNames[c]; named {
			t.Fatalf("test bug: %#04x is a named code", uint16(c))
		}
		if got, want := c.String(), fmt.Sprintf("Code(0x%04x)", uint16(c)); got != want {
			t.Errorf("unnamed code prints %q, want %q", got, want)
		}
	}
}

// TestCodeStringZeroAlloc: the kernel labels a metric with the code's
// name on every Send and every serve, so naming a known code must cost
// no allocation (and no map lookup: it is two array indexings).
func TestCodeStringZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	var sink string
	if allocs := testing.AllocsPerRun(1000, func() {
		sink = ReplyOK.String()
		sink = OpReadInstance.String()
		sink = OpRemoveByUID.String()
	}); allocs != 0 {
		t.Fatalf("Code.String allocates %v times for known codes", allocs)
	}
	_ = sink
}

// TestDecodeDescriptorsAllocatesOnce: a context directory is decoded in
// one allocation whatever its length — one slice sized from the record
// lengths (no growth by doubling) — every name and owner a slice of the
// stream it took over.
func TestDecodeDescriptorsAllocatesOnce(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	list := make([]Descriptor, 100)
	for i := range list {
		list[i] = Descriptor{Tag: TagFile, ObjectID: uint32(i), Name: fmt.Sprintf("f%03d", i)}
		if i%10 == 0 {
			list[i].Owner = "mann"
		}
	}
	buf := EncodeDescriptors(list)
	var got []Descriptor
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if got, err = DecodeDescriptors(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("DecodeDescriptors of %d records: %v allocs, want 1 (the slice)", len(list), allocs)
	}
	if len(got) != len(list) || cap(got) != len(list) {
		t.Fatalf("decoded len %d cap %d, want exactly %d", len(got), cap(got), len(list))
	}
	for i := range list {
		if got[i] != list[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], list[i])
		}
	}
}

func TestDescriptorRoundTrip(t *testing.T) {
	d := Descriptor{
		Tag:          TagFile,
		Perms:        PermRead | PermWrite,
		ObjectID:     1234,
		Size:         4096,
		Modified:     987654321,
		TypeSpecific: [2]uint32{11, 22},
		Name:         "naming.mss",
		Owner:        "cheriton",
	}
	buf := d.AppendEncoded(nil)
	if len(buf) != d.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), d.EncodedSize())
	}
	got, n, err := DecodeDescriptor(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) || got != d {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDescriptorRoundTripProperty(t *testing.T) {
	f := func(tag, perms uint16, id, size uint32, mod uint64, ts [2]uint32, name, owner string) bool {
		if len(name) > 1000 {
			name = name[:1000]
		}
		if len(owner) > 1000 {
			owner = owner[:1000]
		}
		d := Descriptor{
			Tag: DescriptorTag(tag), Perms: perms, ObjectID: id, Size: size,
			Modified: mod, TypeSpecific: ts, Name: name, Owner: owner,
		}
		got, n, err := DecodeDescriptor(d.AppendEncoded(nil))
		return err == nil && n == d.EncodedSize() && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorStreamRoundTrip(t *testing.T) {
	list := []Descriptor{
		{Tag: TagFile, Name: "a"},
		{Tag: TagDirectory, Name: "subdir", Owner: "mann"},
		{Tag: TagLink, Name: "other", TypeSpecific: [2]uint32{0x10001, 3}},
	}
	got, err := DecodeDescriptors(EncodeDescriptors(list))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(list) {
		t.Fatalf("decoded %d records, want %d", len(got), len(list))
	}
	for i := range list {
		if got[i] != list[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], list[i])
		}
	}
}

// TestWholeRecords: a stream cut at any byte keeps the records that end
// at or before the cut.
func TestWholeRecords(t *testing.T) {
	list := []Descriptor{{Tag: TagFile, Name: "a"}, {Tag: TagDirectory, Name: "subdir", Owner: "mann"}, {Tag: TagLink}}
	stream := EncodeDescriptors(list)
	var ends []int
	for i := range list {
		ends = append(ends, len(EncodeDescriptors(list[:i+1])))
	}
	for cut := 0; cut <= len(stream); cut++ {
		want := 0
		for _, end := range ends {
			if end <= cut {
				want = end
			}
		}
		if got := WholeRecords(stream[:cut]); got != want {
			t.Fatalf("WholeRecords of the first %d bytes = %d, want %d", cut, got, want)
		}
	}
}

func TestDecodeDescriptorsEmpty(t *testing.T) {
	got, err := DecodeDescriptors(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %v, %v", got, err)
	}
}

func TestDecodeDescriptorsCorrupt(t *testing.T) {
	d := Descriptor{Tag: TagFile, Name: "x"}
	buf := d.AppendEncoded(nil)
	if _, err := DecodeDescriptors(buf[:len(buf)-1]); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("corrupt stream err = %v", err)
	}
}

func TestDescriptorTagStrings(t *testing.T) {
	tags := []DescriptorTag{TagFile, TagDirectory, TagContextPrefix, TagTerminal,
		TagPrintJob, TagTCPConnection, TagProgram, TagMailbox, TagLink, TagServiceBinding}
	seen := make(map[string]bool, len(tags))
	for _, tag := range tags {
		s := tag.String()
		if s == "" || strings.HasPrefix(s, "tag(") {
			t.Errorf("tag %d has no name", tag)
		}
		if seen[s] {
			t.Errorf("duplicate tag name %q", s)
		}
		seen[s] = true
	}
	if DescriptorTag(999).String() != "tag(999)" {
		t.Fatal("unknown tags should print their value")
	}
}

func TestOpenModeRoundTrip(t *testing.T) {
	m := &Message{Op: OpCreateInstance}
	SetOpenMode(m, ModeRead|ModeCreate)
	if OpenMode(m) != ModeRead|ModeCreate {
		t.Fatal("open mode round trip failed")
	}
}

func TestLeaseRequestRoundTrip(t *testing.T) {
	m := &Message{Op: OpMapContext}
	if _, ok := LeaseRequest(m); ok {
		t.Fatal("an unflagged request asks for a lease")
	}
	SetLeaseRequest(m, 0x00020007)
	if cb, ok := LeaseRequest(m); !ok || cb != 0x00020007 || m.Flags&FlagLeaseRequest == 0 {
		t.Fatalf("LeaseRequest = %#x, %v; flags %#x", cb, ok, m.Flags)
	}
}

func TestLeaseGrantRoundTrip(t *testing.T) {
	m := NewReply(ReplyOK)
	if _, ok := LeaseGrant(m); ok {
		t.Fatal("an unstamped reply carries a lease")
	}
	// Expiries past 2³² ns need both words; below zero, the sign bit.
	for _, expire := range []int64{0, 1, 1<<32 - 1, 1 << 32, 1<<32 + 5, 1<<62 + 3, -1, -(1 << 40), 1<<63 - 1, -1 << 63} {
		SetLeaseGrant(m, expire)
		if got, ok := LeaseGrant(m); !ok || got != expire {
			t.Errorf("LeaseGrant after SetLeaseGrant(%d) = %d, %v", expire, got, ok)
		}
	}
	if m.Op != ReplyOK || m.F[0] != 0 || m.F[3] != 0 {
		t.Fatalf("the stamp touched fields it does not own: %+v", m)
	}
}

func TestCacheInvalidateRoundTrip(t *testing.T) {
	m := &Message{Segment: make([]byte, 0, 64)}
	for _, tc := range []struct {
		name   string
		commit int64
	}{{"home", 7}, {"", 0}, {"a/b\x00c", 1<<32 + 9}, {"x", -3}} {
		SetCacheInvalidate(m, tc.name, tc.commit)
		name, commit, err := CacheInvalidate(m)
		if m.Op != OpCacheInvalidate || err != nil || name != tc.name || commit != tc.commit {
			t.Errorf("round trip of (%q, %d) = (%q, %d, %v), op %v", tc.name, tc.commit, name, commit, err, m.Op)
		}
	}
	if cap(m.Segment) != 64 {
		t.Fatalf("re-encoding grew the segment to cap %d", cap(m.Segment))
	}
	m.F[2] = uint32(len(m.Segment) + 1)
	if _, _, err := CacheInvalidate(m); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("name length past the segment: err = %v", err)
	}
}

// TestAnswerIn: a request turned into a reply keeps nothing of the
// request — no lease flag, no callback pid, no name on the wire — but
// keeps its segment's storage for the next request.
func TestAnswerIn(t *testing.T) {
	req := &Message{Op: OpMapContext, Segment: make([]byte, 0, 32)}
	SetCSName(req, 3, "[home]")
	SetLeaseRequest(req, 0x00010004)
	reply := AnswerIn(req, ReplyOK)
	if reply != req {
		t.Fatal("AnswerIn answered in another message")
	}
	if reply.Op != ReplyOK || reply.Flags != 0 || reply.F != [6]uint32{} {
		t.Fatalf("reply keeps request state: %+v", reply)
	}
	if _, ok := LeaseRequest(reply); ok {
		t.Fatal("reply still asks for a lease")
	}
	if reply.WireSize() != HeaderBytes || reply.WireSize() != NewReply(ReplyOK).WireSize() {
		t.Fatalf("reply wire size %d, want a NewReply's %d", reply.WireSize(), HeaderBytes)
	}
	if len(reply.Segment) != 0 || cap(reply.Segment) != 32 {
		t.Fatalf("segment len %d cap %d, want empty with its 32 bytes kept", len(reply.Segment), cap(reply.Segment))
	}
}
