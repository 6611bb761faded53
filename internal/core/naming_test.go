package core

import (
	"errors"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

func newDomain() *kernel.Kernel {
	return kernel.New(netsim.New(vtime.DefaultModel(), 1))
}

// buildStore makes a store with the shape:
//
//	/            (ctx 0)
//	  users/     (ctx 10)
//	    mann/    (ctx 11)  with object "naming.mss"
//	    cheriton/(ctx 12)  with object "naming.mss"
//	  tmp/       (ctx 20)
//	  elsewhere -> remote (pid 0x00050001, ctx 7)
func buildStore() *MapStore {
	s := NewMapStore()
	for _, ctx := range []ContextID{10, 11, 12, 20} {
		s.AddContext(ctx)
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(s.Bind(CtxDefault, "users", ContextEntry(10)))
	must(s.Bind(CtxDefault, "tmp", ContextEntry(20)))
	must(s.Bind(CtxDefault, "elsewhere", RemoteEntry(ContextPair{Server: kernel.PID(0x00050001), Ctx: 7})))
	must(s.Bind(10, "mann", ContextEntry(11)))
	must(s.Bind(10, "cheriton", ContextEntry(12)))
	must(s.Bind(11, "naming.mss", ObjectEntry(proto.TagFile, 100)))
	must(s.Bind(12, "naming.mss", ObjectEntry(proto.TagFile, 200)))
	return s
}

// homeStore maps the well-known home context onto context 11, the way a
// server maps its well-known ids onto its own contexts (§5.2).
type homeStore struct{ *MapStore }

func (s homeStore) NormalizeContext(ctx ContextID) (ContextID, error) {
	if ctx == CtxHome {
		ctx = 11
	}
	return s.MapStore.NormalizeContext(ctx)
}

func testProc(t *testing.T) *kernel.Process {
	t.Helper()
	k := newDomain()
	h := k.NewHost("ws")
	p, err := h.NewProcess("interpreter")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInterpretObject(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	res, fwd, err := Interpret(s, p, "users/mann/naming.mss", 0, CtxDefault)
	if err != nil || fwd != nil {
		t.Fatalf("err=%v fwd=%v", err, fwd)
	}
	if res.Final != 11 || res.Last != "naming.mss" || res.Entry == nil || res.Entry.Kind != EntryObject {
		t.Fatalf("res = %+v", res)
	}
	if res.Entry.Object.ID != 100 {
		t.Fatalf("resolved wrong object: %d", res.Entry.Object.ID)
	}
}

// TestInterpretDependsOnContext is the paper's §5.2 example: the same name
// maps to different files depending on the context it is interpreted in.
func TestInterpretDependsOnContext(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	resA, _, err := Interpret(s, p, "naming.mss", 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	resB, _, err := Interpret(s, p, "naming.mss", 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Entry.Object.ID == resB.Entry.Object.ID {
		t.Fatal("the same name must resolve differently in different contexts")
	}
}

func TestInterpretWellKnownContext(t *testing.T) {
	s := homeStore{buildStore()}
	p := testProc(t)
	res, _, err := Interpret(s, p, "naming.mss", 0, CtxHome)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entry == nil || res.Entry.Kind != EntryObject || res.Entry.Object.ID != 100 {
		t.Fatalf("well-known home context resolution = %+v", res)
	}
}

func TestInterpretAbsoluteResetsContext(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	// Starting in ctx 20 (tmp), a leading '/' resets to the root.
	res, _, err := Interpret(s, p, "/users/mann", 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entry == nil || res.Entry.Kind != EntryContext || res.Entry.Local != 11 {
		t.Fatalf("res = %+v", res)
	}
}

func TestInterpretEmptyNameIsContextItself(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	res, _, err := Interpret(s, p, "", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, ok := res.ResolvesToContext()
	if !ok || ctx != 10 {
		t.Fatalf("empty name should resolve to the context itself: %+v", res)
	}
}

func TestInterpretTrailingSlash(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	res, _, err := Interpret(s, p, "users/mann/", 0, CtxDefault)
	if err != nil {
		t.Fatal(err)
	}
	ctx, ok := res.ResolvesToContext()
	if !ok || ctx != 11 {
		t.Fatalf("trailing slash should resolve to the context: %+v", res)
	}
}

func TestInterpretDotComponents(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	res, _, err := Interpret(s, p, "./users/./mann/naming.mss", 0, CtxDefault)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entry == nil || res.Entry.Kind != EntryObject || res.Entry.Object.ID != 100 {
		t.Fatalf("dot components mishandled: %+v", res)
	}
}

func TestInterpretDoubleSlashes(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	res, _, err := Interpret(s, p, "users//mann//naming.mss", 0, CtxDefault)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entry == nil || res.Entry.Kind != EntryObject {
		t.Fatalf("double separators mishandled: %+v", res)
	}
}

func TestInterpretUnboundFinalComponent(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	res, fwd, err := Interpret(s, p, "users/mann/newfile", 0, CtxDefault)
	if err != nil || fwd != nil {
		t.Fatalf("unbound final component must not be an interpret error: %v", err)
	}
	if res.Entry != nil || res.Last != "newfile" || res.Final != 11 {
		t.Fatalf("res = %+v", res)
	}
}

func TestInterpretUnboundMiddleComponentFails(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	_, _, err := Interpret(s, p, "users/nobody/naming.mss", 0, CtxDefault)
	if !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestInterpretObjectInMiddleFails(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	_, _, err := Interpret(s, p, "users/mann/naming.mss/deeper", 0, CtxDefault)
	if !errors.Is(err, proto.ErrNotAContext) {
		t.Fatalf("err = %v", err)
	}
}

func TestInterpretBadContext(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	_, _, err := Interpret(s, p, "x", 0, 999)
	if !errors.Is(err, proto.ErrBadContext) {
		t.Fatalf("err = %v", err)
	}
}

func TestInterpretBadIndex(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	if _, _, err := Interpret(s, p, "abc", 7, CtxDefault); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
}

func TestInterpretForwardToRemote(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	res, fwd, err := Interpret(s, p, "elsewhere/far/away", 0, CtxDefault)
	if err != nil || res != nil && res.Entry != nil {
		t.Fatalf("err=%v", err)
	}
	if fwd == nil {
		t.Fatal("expected a forward")
	}
	if fwd.Pair.Server != kernel.PID(0x00050001) || fwd.Pair.Ctx != 7 {
		t.Fatalf("forward pair = %v", fwd.Pair)
	}
	// Index points at the first character not yet parsed: "far/away".
	if got := "elsewhere/far/away"[fwd.Index:]; got != "far/away" {
		t.Fatalf("forward index leaves %q unparsed", got)
	}
}

func TestInterpretForwardAtFinalComponent(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	_, fwd, err := Interpret(s, p, "elsewhere", 0, CtxDefault)
	if err != nil {
		t.Fatal(err)
	}
	if fwd == nil || fwd.Index != len("elsewhere") {
		t.Fatalf("final remote component must forward with index at end: %+v", fwd)
	}
}

func TestInterpretResumesAtIndex(t *testing.T) {
	// Simulates the second server's half of a forwarded interpretation.
	s := buildStore()
	p := testProc(t)
	full := "prefixjunk/users/mann/naming.mss"
	idx := len("prefixjunk/")
	res, fwd, err := Interpret(s, p, full, idx, CtxDefault)
	if err != nil || fwd != nil {
		t.Fatalf("err=%v fwd=%v", err, fwd)
	}
	if res.Entry == nil || res.Entry.Kind != EntryObject || res.Entry.Object.ID != 100 {
		t.Fatalf("res = %+v", res)
	}
}

func TestInterpretChargesVirtualTime(t *testing.T) {
	s := buildStore()
	p := testProc(t)
	before := p.Now()
	if _, _, err := Interpret(s, p, "users/mann/naming.mss", 0, CtxDefault); err != nil {
		t.Fatal(err)
	}
	m := p.Kernel().Model()
	min := m.NameParse(len("users/mann/naming.mss")) + 3*m.ContextLookupCost
	if got := p.Now() - before; got < min {
		t.Fatalf("interpretation charged %v, want ≥ %v", got, min)
	}
}

func TestInterpretPropertyBoundPathsResolve(t *testing.T) {
	// Property: binding a chain of contexts then an object makes the
	// joined path resolve to that object.
	f := func(rawParts []string, objID uint32) bool {
		s := NewMapStore()
		p := testProcQuick()
		ctx := CtxDefault
		var parts []string
		next := ContextID(1000)
		for _, rp := range rawParts {
			name := sanitize(rp)
			if name == "" {
				continue
			}
			if len(parts) >= 6 {
				break
			}
			s.AddContext(next)
			if err := s.Bind(ctx, name, ContextEntry(next)); err != nil {
				continue // duplicate component name at this level
			}
			parts = append(parts, name)
			ctx = next
			next++
		}
		if err := s.Bind(ctx, "obj", ObjectEntry(proto.TagFile, objID)); err != nil {
			return false
		}
		parts = append(parts, "obj")
		res, fwd, err := Interpret(s, p, strings.Join(parts, "/"), 0, CtxDefault)
		if err != nil || fwd != nil || res.Entry == nil || res.Entry.Kind != EntryObject {
			return false
		}
		return res.Entry.Object.ID == objID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func testProcQuick() *kernel.Process {
	k := newDomain()
	h := k.NewHost("ws")
	p, err := h.NewProcess("interpreter")
	if err != nil {
		panic(err)
	}
	return p
}

// sanitize turns an arbitrary string into a legal path component (no
// separators, dots or brackets, non-empty handled by caller).
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == Separator || r == '.' || r == '[' || r == ']' {
			continue
		}
		b.WriteRune(r)
		if b.Len() > 12 {
			break
		}
	}
	return b.String()
}

func TestMapStoreBindUnbind(t *testing.T) {
	s := NewMapStore()
	if err := s.Bind(CtxDefault, "x", ObjectEntry(proto.TagFile, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(CtxDefault, "x", ObjectEntry(proto.TagFile, 2)); !errors.Is(err, proto.ErrDuplicateName) {
		t.Fatalf("duplicate bind err = %v", err)
	}
	e, err := s.Lookup(CtxDefault, "x")
	if err != nil || e.Kind != EntryObject || e.Object.ID != 1 {
		t.Fatalf("lookup after a refused duplicate = %+v, %v", e, err)
	}
	if err := s.Unbind(CtxDefault, "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unbind(CtxDefault, "x"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("unbind missing err = %v", err)
	}
}

func TestMapStoreEmptyNameRejected(t *testing.T) {
	s := NewMapStore()
	if err := s.Bind(CtxDefault, "", ObjectEntry(proto.TagFile, 1)); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapStoreNamesSorted(t *testing.T) {
	s := NewMapStore()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := s.Bind(CtxDefault, n, ObjectEntry(proto.TagFile, 1)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.Names(CtxDefault)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestMapStoreBadContextOps(t *testing.T) {
	s := NewMapStore()
	if err := s.Bind(42, "x", ObjectEntry(proto.TagFile, 1)); !errors.Is(err, proto.ErrBadContext) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Names(42); !errors.Is(err, proto.ErrBadContext) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.NormalizeContext(42); !errors.Is(err, proto.ErrBadContext) {
		t.Fatalf("err = %v", err)
	}
}

// TestEntryKinds: each constructor sets exactly its own arm of an Entry.
func TestEntryKinds(t *testing.T) {
	arms := func(e Entry) [3]bool {
		return [3]bool{e.Kind == EntryObject, e.Kind == EntryContext, e.Kind == EntryRemote}
	}
	if arms(ObjectEntry(proto.TagFile, 1)) != [3]bool{true, false, false} ||
		arms(ContextEntry(5)) != [3]bool{false, true, false} ||
		arms(RemoteEntry(ContextPair{})) != [3]bool{false, false, true} ||
		arms(Entry{}) != [3]bool{} {
		t.Fatal("an entry constructor set the wrong arm")
	}
}

func TestIsWellKnown(t *testing.T) {
	if !IsWellKnown(CtxHome) || !IsWellKnown(CtxStdPrograms) || IsWellKnown(CtxDefault) || IsWellKnown(17) {
		t.Fatal("IsWellKnown misclassifies")
	}
}

func TestContextPairString(t *testing.T) {
	s := ContextPair{Server: kernel.MakePID(1, 2), Ctx: 3}.String()
	if !strings.Contains(s, "1.2") || !strings.Contains(s, "0x3") {
		t.Fatalf("String = %q", s)
	}
}

func TestMatchName(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"", "anything", true},
		{"*", "", true},
		{"*", "abc", true},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*c", "abd", false},
		{"*.mss", "naming.mss", true},
		{"*.mss", "naming.txt", false},
		{"?", "a", true},
		{"?", "", false},
		{"?", "ab", false},
		{"v?t*", "vgt12", true},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "aXcYb", false},
		{"**", "x", true},
		{"exact", "exact", true},
		{"exact", "exactly", false},
		{"*@su-score.ARPA", "cheriton@su-score.ARPA", true},
		{"*@su-score.ARPA", "mann@v.stanford.edu", false},
	}
	for _, c := range cases {
		if got := MatchName(c.pattern, c.name); got != c.want {
			t.Errorf("MatchName(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}

func TestMatchNameAgainstRegexp(t *testing.T) {
	// Property: MatchName agrees with the equivalent anchored regexp.
	f := func(rawPattern, rawName string) bool {
		pattern := sanitize(rawPattern)
		name := sanitize(rawName)
		if pattern == "" {
			// Empty pattern is defined as match-all, unlike the regexp
			// translation below.
			return MatchName(pattern, name)
		}
		// Rebuild a pattern with some wildcards sprinkled in.
		if len(pattern) > 2 {
			pattern = pattern[:1] + "*" + pattern[2:]
		}
		var sb strings.Builder
		sb.WriteString("^")
		for _, r := range pattern {
			switch r {
			case '*':
				sb.WriteString(".*")
			case '?':
				sb.WriteString(".")
			default:
				sb.WriteString(regexp.QuoteMeta(string(r)))
			}
		}
		sb.WriteString("$")
		re, err := regexp.Compile(sb.String())
		if err != nil {
			return true
		}
		return MatchName(pattern, name) == re.MatchString(name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterRecords(t *testing.T) {
	records := []proto.Descriptor{
		{Name: "naming.mss"}, {Name: "ipc.mss"}, {Name: "notes.txt"},
	}
	got := FilterRecords(append([]proto.Descriptor(nil), records...), "*.mss")
	if len(got) != 2 || got[0].Name != "naming.mss" || got[1].Name != "ipc.mss" {
		t.Fatalf("filtered = %+v", got)
	}
	all := FilterRecords(records, "")
	if len(all) != 3 {
		t.Fatalf("empty pattern must keep everything: %+v", all)
	}
}

func TestNameErrorFormat(t *testing.T) {
	ne := &NameError{Component: "nobody", Index: 6, Ctx: 3, Server: kernel.MakePID(1, 2), Err: proto.ErrNotFound}
	msg := ne.Error()
	for _, want := range []string{"nobody", "byte 6", "0x3", "1.2", "nonexistent name"} {
		if !strings.Contains(msg, want) {
			t.Errorf("NameError message %q missing %q", msg, want)
		}
	}
	if !errors.Is(ne, proto.ErrNotFound) {
		t.Fatal("NameError must unwrap")
	}
}
