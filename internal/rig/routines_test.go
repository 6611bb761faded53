package rig

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/raceflag"
)

// paperFiles boots cfg and seeds, through a new session of the first
// workstation, a directory of 100 files of 4 000 bytes each on fs1; it
// returns the rig and that session.
func paperFiles(t *testing.T, cfg Config) (*Rig, *client.Session) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.NewSession(r.WS[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"[storage]bench", "[storage]bench/d", "[storage]bench/new", "[storage]bench/s"} {
		if err := s.MakeContext(dir); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := s.WriteFile(fmt.Sprintf("[storage]bench/d/f%03d", i), contents(i, 4000)); err != nil {
			t.Fatal(err)
		}
	}
	return r, s
}

// contents is file i's n bytes.
func contents(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i + j*7)
	}
	return b
}

// TestPaperRoutinesAllocate pins what each of the paper's routines
// allocates, warmed up, on the paper rig, by a [prefix]-name through the
// prefix server to fs1: Query, ReadFile of 4 000 bytes, WriteFile of
// 1 000 over a file of that size, List of a 100-entry directory and
// MakeContext. Each sends the session's one request and answers in it,
// and the three file routines run on the session's one file, so what is
// left is what the caller keeps (the descriptor's name, the bytes read,
// the listing and the stream it aliases), the prefix the prefix server's
// observers keep (this rig records a flight journal), what fs1 keeps
// while an instance is open (the name its registry slot records, the
// file's read-ahead state or the directory's instance and stream), and
// the directory a MakeContext adds. fs1 reads every name where it lies,
// and a rewrite takes back the buffer-cache pages its truncate freed.
func TestPaperRoutinesAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	const runs = 200
	_, s := paperFiles(t, DefaultConfig())
	data := contents(7, 1000)
	fresh := make([]string, runs+1) // AllocsPerRun runs once more than asked
	for i := range fresh {
		fresh[i] = fmt.Sprintf("[storage]bench/new/c%03d", i)
	}
	next := 0
	for _, tc := range []struct {
		routine string
		want    float64
		op      func() error
	}{
		{"Query", 2, func() error { _, err := s.Query("[storage]bench/d/f007"); return err }},
		{"ReadFile", 4, func() error { _, err := s.ReadFile("[storage]bench/d/f007"); return err }},
		{"WriteFile", 3, func() error { return s.WriteFile("[storage]bench/s/w", data) }},
		{"List", 5, func() error { _, err := s.List("[storage]bench/d"); return err }},
		{"MakeContext", 5, func() error { next++; return s.MakeContext(fresh[next-1]) }},
	} {
		if tc.routine != "MakeContext" {
			for i := 0; i < 8; i++ {
				if err := tc.op(); err != nil {
					t.Fatalf("%s: %v", tc.routine, err)
				}
			}
		}
		if got := testing.AllocsPerRun(runs, func() {
			if err := tc.op(); err != nil {
				t.Fatalf("%s: %v", tc.routine, err)
			}
		}); got != tc.want {
			t.Errorf("%s allocates %v times, want %v", tc.routine, got, tc.want)
		}
	}
}

// TestSessionResultsSurviveNextRequest: every routine sends the session's
// one request message and reads its answer there, so what a routine hands
// back must not alias it. Query's descriptor, List's descriptors, ReadFile's
// bytes and an Open'ed file are checked after later requests on the same
// session, one of which takes the recovery path: its first attempt goes to
// the dead server of the current context, and rebind re-maps that context
// through the same message before the request is rebuilt and retried.
func TestSessionResultsSurviveNextRequest(t *testing.T) {
	policy := client.DefaultRetryPolicy()
	cfg := DefaultConfig()
	cfg.Retry = &policy
	r, s := paperFiles(t, cfg)
	for _, dir := range []string{"[storage2]bench", "[storage2]bench/e"} {
		if err := s.MakeContext(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteFile("[storage2]bench/e/g", contents(50, 700)); err != nil {
		t.Fatal(err)
	}

	d, err := s.Query("[storage]bench/d/f007")
	if err != nil {
		t.Fatal(err)
	}
	wantD := d
	wantD.Name = strings.Clone(d.Name)
	listed, err := s.ListPattern("[storage]bench/d", "f00?")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range listed {
		names = append(names, strings.Clone(e.Name))
	}
	data, err := s.ReadFile("[storage]bench/d/f003")
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("[storage]bench/d/f005", proto.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	server, id := f.Server(), f.InstanceID()

	// Later requests of every kind, each longer than the last.
	if err := s.WriteFile("[storage]bench/s/overwrite-the-message", contents(9, 3000)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("[storage]bench/d/f099"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List("[storage]bench"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile("[storage]bench/d/f098"); err != nil {
		t.Fatal(err)
	}
	if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, contents(5, 4000)) || f.Server() != server || f.InstanceID() != id {
		t.Fatalf("the open file after later requests: %d bytes, %v, instance %v/%d (was %v/%d)", len(got), err, f.Server(), f.InstanceID(), server, id)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The recovery path: [work] names fs1's directory d, the current
	// context; fs1 dies and [work] is redefined on fs2, so the relative
	// read fails once, rebind re-maps [work] in the session's message, and
	// the retried read is the one the caller asked for.
	d1, err := s.MapContext("[storage]bench/d")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddName("work", d1); err != nil {
		t.Fatal(err)
	}
	if err := s.ChangeContext("[work]"); err != nil {
		t.Fatal(err)
	}
	e2, err := s.MapContext("[storage2]bench/e")
	if err != nil {
		t.Fatal(err)
	}
	r.FS1Host.Crash()
	if err := s.DeleteName("work"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddName("work", e2); err != nil {
		t.Fatal(err)
	}
	rebinds := countOf(r.Metrics, "client_rebinds_total", metrics.Labels{Server: s.Proc().Name()})
	if got, err := s.ReadFile("g"); err != nil || !bytes.Equal(got, contents(50, 700)) {
		t.Fatalf("the retried read: %d bytes, %v", len(got), err)
	}
	if n := countOf(r.Metrics, "client_rebinds_total", metrics.Labels{Server: s.Proc().Name()}); n != rebinds+1 || s.Current() != e2 {
		t.Fatalf("rebinds %d → %d, current %v: the read did not re-map its context to %v", rebinds, n, s.Current(), e2)
	}

	if d != wantD || d.Name != wantD.Name {
		t.Fatalf("Query's descriptor became %+v, was %+v", d, wantD)
	}
	if len(listed) != 10 {
		t.Fatalf("List returned %d records, want 10", len(listed))
	}
	for i, e := range listed {
		if e.Name != names[i] {
			t.Fatalf("List's record %d is named %q, was %q", i, e.Name, names[i])
		}
	}
	if !bytes.Equal(data, contents(3, 4000)) {
		t.Fatal("ReadFile's bytes changed under later requests")
	}
}
