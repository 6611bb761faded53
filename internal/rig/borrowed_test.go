package rig

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/termserver"
	"repro/internal/vio"
)

// TestServersKeepNoBorrowedName: a server reads a request's names where
// they lie in its segment (proto.CSName) and keeps only copies. One
// session creates, defines and opens objects under long names on every
// server of the uniform table, fs1, fs2 and the prefix server, leased
// resolutions among them; its next requests then overwrite the messages
// every one of those names was read from — the session's one request and
// its lease cache's — and every name must read back intact: listings,
// queries, instance names, the prefix table, and this observed rig's
// flight journal and hot-name sketch.
func TestServersKeepNoBorrowedName(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lease = 10 * time.Second
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.NewSession(r.WS[0])
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every later request fits the storage these widen, so the overwrite
	// below reaches every byte a server read from either message.
	const width = 1024
	filler := func(b byte) string { return strings.Repeat(string(b), width) }
	overwrite := func(b byte) {
		t.Helper()
		if _, err := s.Query("[storage]" + filler(b)); !errors.Is(err, proto.ErrNotFound) {
			t.Fatalf("filler query: %v", err)
		}
		if _, err := s.MapContext("[" + filler(b) + "]"); !errors.Is(err, proto.ErrNotFound) {
			t.Fatalf("filler prefix: %v", err)
		}
	}
	must(s.EnableLeaseCache())
	overwrite('a')

	long := func(tag string) string { return tag + "-" + strings.Repeat("borrowed", 12) }
	dir, file, renamed, alias, link := long("dir"), long("file"), long("renamed"), long("alias"), long("link")
	program, job, pipe, conn, mailbox := long("prog"), long("job")+".ps", long("pipe"), "tcp/"+long("host")+":7", long("box")+"@v.stanford.edu"
	static, dynamic, deleted := long("static"), long("dynamic"), long("deleted")

	// fs1: a directory, a file renamed and aliased in it, a link to fs2;
	// fs2: a directory and a file; [bin] a program image exec'd by its
	// long name.
	must(s.MakeContext("[storage]" + dir))
	must(s.WriteFile("[storage]"+dir+"/"+file, []byte("fs1 bytes")))
	must(s.Rename("[storage]"+dir+"/"+file, "[storage]"+dir+"/"+renamed))
	must(s.Link("[storage]"+dir+"/"+renamed, "[storage]"+dir+"/"+alias))
	must(s.AddLink("[storage]"+dir+"/"+link, r.FS2.RootPair()))
	must(s.MakeContext("[storage2]" + dir))
	must(s.WriteFile("[storage2]"+dir+"/"+file, []byte("fs2 bytes")))
	must(s.WriteFile("[bin]"+program, []byte("image")))
	progName, _, err := s.Exec("[exec]" + program)
	must(err)

	// The prefix server: a static and a dynamic definition, both leased,
	// and a leased definition deleted, whose holder group it parks under
	// the name.
	storage, err := s.MapContext("[storage]")
	must(err)
	must(s.AddName(static, storage))
	must(s.AddDynamicName(dynamic, kernel.ServiceStorage, storage.Ctx))
	must(s.AddName(deleted, storage))
	for _, p := range []string{static, dynamic, deleted} {
		if _, err := s.MapContext("[" + p + "]"); err != nil {
			t.Fatalf("leased map of %s: %v", p, err)
		}
	}
	must(s.DeleteName(deleted))

	// The flat servers' objects, each left open under the name it was
	// created by; the print job spools and queues, and a terminal, which
	// its server names, is reopened by that name.
	spool, err := s.Open("[print]"+job, proto.ModeWrite|proto.ModeCreate)
	must(err)
	_, err = spool.Write([]byte("%!PS"))
	must(err)
	must(spool.Close())
	tty, err := s.Open("[tty]"+termserver.CreateName, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	must(err)
	terminal, err := tty.InstanceName()
	must(err)
	must(tty.Close())
	// Each instance records the name its server was sent — the lease
	// cache sends it relative to the context the prefix names — or, for a
	// connection, its final component.
	type instance struct {
		f    *vio.File
		name string
	}
	var opened []instance
	for _, o := range []struct {
		name, instance string
		mode           uint32
	}{
		{"[storage]" + dir + "/" + renamed, dir + "/" + renamed, proto.ModeRead},
		{"[storage2]" + dir + "/" + file, dir + "/" + file, proto.ModeRead},
		{"[pipe]" + pipe, pipe, proto.ModeWrite | proto.ModeCreate},
		{"[tcp]" + conn, strings.TrimPrefix(conn, "tcp/"), proto.ModeRead | proto.ModeWrite | proto.ModeCreate},
		{"[mail]" + mailbox, mailbox, proto.ModeWrite | proto.ModeCreate},
		{"[print]" + job, job, proto.ModeRead},
		{"[tty]" + terminal, terminal, proto.ModeRead},
	} {
		f, err := s.Open(o.name, o.mode)
		if err != nil {
			t.Fatalf("open %s: %v", o.name, err)
		}
		opened = append(opened, instance{f, o.instance})
	}

	overwrite('z')
	overwrite('y')

	listing := func(dir string) map[string]string {
		t.Helper()
		records, err := s.List(dir)
		if err != nil {
			t.Fatalf("list %s: %v", dir, err)
		}
		owners := map[string]string{}
		for _, d := range records {
			owners[d.Name] = d.Owner
		}
		return owners
	}
	for dir, want := range map[string][]string{
		"[storage]" + dir:  {renamed, alias, link},
		"[storage]":        {dir},
		"[storage2]" + dir: {file},
		"[storage2]":       {dir},
		"[bin]":            {program},
		"[exec]":           {progName},
		"[print]":          {job},
		"[pipe]":           {pipe},
		"[tcp]tcp":         {strings.TrimPrefix(conn, "tcp/")},
		"[mail]":           {mailbox},
	} {
		got := listing(dir)
		for _, name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s lists %v, not %q", dir, got, name)
			}
		}
	}
	// A listing's request names no program, so it cannot restore the
	// bytes a borrowed image name would read.
	if image := listing("[exec]")[progName]; image != program {
		t.Errorf("the program runs image %q, want %q", image, program)
	}
	for name, want := range map[string]string{
		"[storage]" + dir + "/" + alias: alias,
		"[storage2]" + dir:              dir,
		"[exec]" + progName:             progName,
		"[pipe]" + pipe:                 pipe,
		"[mail]" + mailbox:              mailbox,
	} {
		d, err := s.Query(name)
		if err != nil || d.Name != want {
			t.Errorf("query %s = %q, %v; want %q", name, d.Name, err, want)
		}
	}
	for _, in := range opened {
		if got, err := in.f.InstanceName(); err != nil || got != in.name {
			t.Errorf("instance opened as %s names itself %q, %v", in.name, got, err)
		}
		must(in.f.Close())
	}

	prefixes, err := s.ListPrefixes()
	must(err)
	bound := map[string]bool{}
	for _, d := range prefixes {
		bound[d.Name] = true
	}
	if !bound[static] || !bound[dynamic] || bound[deleted] {
		t.Errorf("prefix table %v: want %q and %q, not %q", bound, static, dynamic, deleted)
	}
	// The deleted name's parked holder group is found by name: a define
	// re-adopts it and calls the holder back.
	before := r.WS[0].Prefix.LeaseStats().HoldersNotified
	must(s.AddName(deleted, storage))
	if after := r.WS[0].Prefix.LeaseStats().HoldersNotified; after != before+1 {
		t.Errorf("the redefine called back %d holders, want the deleted name's 1", after-before)
	}

	// Every name the observers kept is one this test used: an overwritten
	// view would read as filler.
	used := map[string]bool{static: true, dynamic: true, deleted: true, filler('a'): true, filler('z'): true, filler('y'): true}
	for name := range r.WS[0].Prefix.Bindings() {
		used[name] = true
	}
	kept := func(what, name string) {
		t.Helper()
		if name != "" && !used[name] {
			t.Errorf("%s keeps %q, a name no request carried", what, name)
		}
	}
	journal := r.Flight.Journal()
	if len(journal) == 0 {
		t.Fatal("the observed rig journaled nothing")
	}
	for _, ev := range journal {
		kept("the flight journal", ev.Name)
	}
	top := r.WS[0].Prefix.TopNames()
	if len(top) == 0 {
		t.Fatal("the observed rig's sketch holds no name")
	}
	for _, it := range top {
		kept("the hot-name sketch", it.Name)
	}
}
