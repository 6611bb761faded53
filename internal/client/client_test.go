package client_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fileserver"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/rig"
)

func boot(t *testing.T) *rig.Rig {
	t.Helper()
	r, err := rig.New(rig.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoutePrefixedVsRelative(t *testing.T) {
	// Both forms reach the same file: '['-names via the prefix server,
	// relative names via the current context — the two routing arms of
	// the single common check (§6).
	r := boot(t)
	s := r.WS[0].Session
	a, err := s.ReadFile("[home]welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.ReadFile("welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("routes disagree")
	}
}

func TestOpenModes(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	// Read-only instance rejects writes at the server.
	f, err := s.Open("[home]welcome.txt", proto.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, proto.ErrModeNotSupported) {
		t.Fatalf("write to read-only err = %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileSeekAndPartialReads(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	content := strings.Repeat("0123456789", 200) // 2000 bytes, 4 blocks
	if err := s.WriteFile("[home]seek.dat", []byte(content)); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("[home]seek.dat", proto.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(515, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := io.ReadFull(f, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != content[515:522] {
		t.Fatalf("read %q, want %q", buf, content[515:522])
	}
	// Seek relative to end.
	if _, err := f.Seek(-4, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil || string(got) != content[len(content)-4:] {
		t.Fatalf("tail read %q, %v", got, err)
	}
	if _, err := f.Seek(-10, io.SeekStart); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("negative seek err = %v", err)
	}
}

func TestQueryRefreshAfterWrite(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	f, err := s.Open("[home]grow.dat", proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if info, err := f.Query(); err != nil || info.SizeBytes != 0 {
		t.Fatalf("new file should be empty: %+v, %v", info, err)
	}
	if _, err := f.Write(make([]byte, 700)); err != nil {
		t.Fatal(err)
	}
	info, err := f.Query()
	if err != nil || info.SizeBytes != 700 {
		t.Fatalf("query = %+v, %v", info, err)
	}
}

func TestInstanceNameThroughPrefix(t *testing.T) {
	// The inverse mapping from an open instance returns the name the
	// server interpreted — the post-prefix remainder, since the prefix
	// server rewrote the request (§6's many-to-one reverse mapping).
	r := boot(t)
	s := r.WS[0].Session
	f, err := s.Open("[home]welcome.txt", proto.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	name, err := f.InstanceName()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(name, "welcome.txt") {
		t.Fatalf("instance name = %q", name)
	}
}

func TestChangeContextToBadNameFails(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	before := s.Current()
	if err := s.ChangeContext("[home]welcome.txt"); !errors.Is(err, proto.ErrNotAContext) {
		t.Fatalf("chdir to a file err = %v", err)
	}
	if s.Current() != before {
		t.Fatal("failed chdir must not change the current context")
	}
	if err := s.ChangeContext("[nosuch]"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("chdir to unknown prefix err = %v", err)
	}
}

func TestUnlinkCrossServerLink(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	// The link resolves before unlinking...
	if _, err := s.ReadFile("[storage]/shared/archive/2026/paper.mss"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unlink("[storage]/shared/archive"); err != nil {
		t.Fatal(err)
	}
	// ...the binding is gone afterwards, but FS2's objects are untouched.
	if _, err := s.ReadFile("[storage]/shared/archive/2026/paper.mss"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("read through removed link err = %v", err)
	}
	if _, err := s.ReadFile("[storage2]/archive/2026/paper.mss"); err != nil {
		t.Fatalf("remote object must survive unlink: %v", err)
	}
}

func TestAddLinkThenTraverse(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	target, err := s.MapContext("[storage2]/archive/2026")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddLink("[home]papers", target); err != nil {
		t.Fatal(err)
	}
	data, err := s.ReadFile("[home]papers/paper.mss")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Uniform Access") {
		t.Fatalf("read %q", data)
	}
}

func TestSessionIsolation(t *testing.T) {
	// Two sessions (programs) on the same workstation have independent
	// current contexts but share the user's prefix server.
	r := boot(t)
	ws := r.WS[0]
	s2, err := r.NewSession(ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Session.ChangeContext("[storage]/users/cheriton"); err != nil {
		t.Fatal(err)
	}
	// s2's current context is unchanged.
	data, err := s2.ReadFile("welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "mann") {
		t.Fatalf("s2 read %q", data)
	}
	// But a prefix added via s2 is visible to the first session.
	pair, err := s2.MapContext("[storage]/bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AddName("sharedpfx", pair); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Session.Query("[sharedpfx]hello"); err != nil {
		t.Fatalf("shared prefix not visible: %v", err)
	}
}

func TestListPrefixesMatchesDefinitions(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	records, err := s.ListPrefixes()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(r.WS[0].Prefix.Bindings()) {
		t.Fatalf("listing has %d records, table has %d", len(records), len(r.WS[0].Prefix.Bindings()))
	}
	for _, d := range records {
		if d.Tag != proto.TagContextPrefix {
			t.Fatalf("record %+v", d)
		}
	}
}

func TestWriteFileTruncatesExisting(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	if err := s.WriteFile("[home]t.txt", []byte("a much longer original content")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("[home]t.txt", []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("[home]t.txt")
	if err != nil || string(got) != "short" {
		t.Fatalf("read %q, %v", got, err)
	}
}

func TestRenameRelativeNames(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	s.SetCurrent(r.WS[0].HomeCtx)
	if err := s.WriteFile("x.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("x.txt", "y.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile("y.txt"); err != nil {
		t.Fatal(err)
	}
}

func TestCurrentContextSurvivesPrefixChanges(t *testing.T) {
	// Current context is a (pid, ctx) pair, independent of the prefix
	// table — deleting the prefix used to reach it does not break it.
	r := boot(t)
	s := r.WS[0].Session
	if err := s.ChangeContext("[storage2]/archive"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteName("storage2"); err != nil {
		t.Fatal(err)
	}
	records, err := s.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Name != "2026" {
		t.Fatalf("listing = %+v", records)
	}
}

func TestCrossPrefixAddLinkExtendsForest(t *testing.T) {
	// Build a chain: FS2 gets a link back into FS1, making a path that
	// crosses servers twice.
	r := boot(t)
	s := r.WS[0].Session
	fs1bin, err := s.MapContext("[storage]/bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddLink("[storage2]/archive/tools", fs1bin); err != nil {
		t.Fatal(err)
	}
	d, err := s.Query("[storage]/shared/archive/tools/hello")
	if err != nil {
		t.Fatal(err)
	}
	if d.Tag != proto.TagFile || d.Name != "hello" {
		t.Fatalf("descriptor = %+v", d)
	}

}

func TestNameCacheHitsAndSpeed(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	s.EnableNameCache(false)

	// Warm.
	if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
		t.Fatal(err)
	}
	stats := s.LeaseCacheStats()
	if stats.Misses != 1 {
		t.Fatalf("stats after warm = %+v", stats)
	}
	// A cached open is cheaper than the prefix-server path.
	start := s.Proc().Now()
	if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
		t.Fatal(err)
	}
	cached := s.Proc().Now() - start
	if s.LeaseCacheStats().Hits == 0 {
		t.Fatal("second open should hit the cache")
	}
	s.FlushNameCache() // unstamped entries: the next read walks the prefix server
	start = s.Proc().Now()
	if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
		t.Fatal(err)
	}
	uncached := s.Proc().Now() - start
	if cached >= uncached {
		t.Fatalf("cached read %v should beat uncached %v", cached, uncached)
	}
}

func TestNameCacheStaleAndFlush(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	s.EnableNameCache(false)
	if _, err := s.ReadFile("[storage2]/archive/2026/paper.mss"); err != nil {
		t.Fatal(err)
	}
	// FS2 is re-created with a new pid: the cached pair goes stale.
	r.FS2Host.Crash()
	r.FS2Host.Restart()
	fsNew, err := fileserver.Start(r.FS2Host, "fs2")
	if err != nil {
		t.Fatal(err)
	}
	if err := fsNew.WriteFile("/archive/2026/paper.mss", "system", []byte("restored")); err != nil {
		t.Fatal(err)
	}
	// The prefix table must also be repointed (static [storage2]) — the
	// cache failure below is purely the client cache's.
	if err := s.DeleteName("storage2"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddName("storage2", fsNew.RootPair()); err != nil {
		t.Fatal(err)
	}

	if _, err := s.ReadFile("[storage2]/archive/2026/paper.mss"); err == nil {
		t.Fatal("naive cache must fail on the stale resolution")
	}
	if s.LeaseCacheStats().Stale == 0 {
		t.Fatal("stale use not counted")
	}
	s.FlushNameCache()
	data, err := s.ReadFile("[storage2]/archive/2026/paper.mss")
	if err != nil || string(data) != "restored" {
		t.Fatalf("after flush: %q, %v", data, err)
	}
}

func TestNameCacheRetryRecovers(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	s.EnableNameCache(true)
	if _, err := s.ReadFile("[storage2]/archive/2026/paper.mss"); err != nil {
		t.Fatal(err)
	}
	r.FS2Host.Crash()
	r.FS2Host.Restart()
	fsNew, err := fileserver.Start(r.FS2Host, "fs2")
	if err != nil {
		t.Fatal(err)
	}
	if err := fsNew.WriteFile("/archive/2026/paper.mss", "system", []byte("restored")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteName("storage2"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddName("storage2", fsNew.RootPair()); err != nil {
		t.Fatal(err)
	}
	data, err := s.ReadFile("[storage2]/archive/2026/paper.mss")
	if err != nil || string(data) != "restored" {
		t.Fatalf("retry cache did not recover: %q, %v", data, err)
	}
	if s.LeaseCacheStats().Stale != 1 {
		t.Fatalf("stats = %+v", s.LeaseCacheStats())
	}
}

func TestFileOpsAgainstReferenceModel(t *testing.T) {
	// Model-based property: random Write/Seek/Read sequences through the
	// block-oriented I/O protocol behave exactly like an in-memory byte
	// buffer with a cursor.
	r := boot(t)
	s := r.WS[0].Session

	for _, seed := range []int64{3, 11, 29} {
		rng := rand.New(rand.NewSource(seed))
		name := fmt.Sprintf("[home]model-%d.dat", seed)
		f, err := s.Open(name, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
		if err != nil {
			t.Fatal(err)
		}

		var ref []byte // reference contents
		var pos int64  // reference cursor
		for op := 0; op < 60; op++ {
			switch rng.Intn(3) {
			case 0: // write a random chunk at the cursor
				chunk := make([]byte, 1+rng.Intn(700))
				for i := range chunk {
					chunk[i] = byte(rng.Intn(256))
				}
				n, err := f.Write(chunk)
				if err != nil || n != len(chunk) {
					t.Fatalf("seed %d op %d: write %d, %v", seed, op, n, err)
				}
				if need := pos + int64(len(chunk)); need > int64(len(ref)) {
					grown := make([]byte, need)
					copy(grown, ref)
					ref = grown
				}
				copy(ref[pos:], chunk)
				pos += int64(len(chunk))

			case 1: // seek somewhere within [0, len+32]
				target := int64(0)
				if len(ref) > 0 {
					target = int64(rng.Intn(len(ref) + 32))
				}
				if _, err := f.Seek(target, io.SeekStart); err != nil {
					t.Fatalf("seed %d op %d: seek: %v", seed, op, err)
				}
				pos = target

			case 2: // read a chunk at the cursor
				want := 1 + rng.Intn(900)
				buf := make([]byte, want)
				n, err := f.Read(buf)
				expected := 0
				if pos < int64(len(ref)) {
					expected = len(ref) - int(pos)
					if expected > want {
						expected = want
					}
				}
				if expected == 0 {
					if err != io.EOF {
						t.Fatalf("seed %d op %d: read at EOF: n=%d err=%v", seed, op, n, err)
					}
					continue
				}
				if err != nil && err != io.EOF {
					t.Fatalf("seed %d op %d: read: %v", seed, op, err)
				}
				// The block protocol may return short reads at block
				// boundaries; verify the prefix matches and advance.
				if n == 0 {
					t.Fatalf("seed %d op %d: zero read with %d expected", seed, op, expected)
				}
				if string(buf[:n]) != string(ref[pos:pos+int64(n)]) {
					t.Fatalf("seed %d op %d: contents diverge at %d", seed, op, pos)
				}
				pos += int64(n)
			}
		}
		// Final: full contents agree.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		got, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(ref) {
			t.Fatalf("seed %d: final contents diverge (%d vs %d bytes)", seed, len(got), len(ref))
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPayloadRoutinesUseCache exercises each routine whose payload
// rides the segment after the name — plus the MoveTo program load — with
// the name cache on and warm for their prefixes: every one must work (the
// cache's name rewrite must leave the payload whole), and each prefixed
// call is one hit, neither a miss nor a renewal. A payload request on a
// negatively leased prefix is answered locally, and one sent to a stale
// cached pair is counted, dropped and re-resolved once.
func TestPayloadRoutinesUseCache(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	s.EnableNameCache(true)
	for _, name := range []string{"[home]", "[bin]", "[exec]"} {
		if _, err := s.MapContext(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteFile("[home]a.mss", []byte("x")); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		label string
		hits  int // prefixed calls, each served by its warm entry
		run   func() error
	}{
		{"ListPattern", 1, func() error {
			records, err := s.ListPattern("[home]", "*.mss")
			if err == nil && (len(records) != 1 || records[0].Name != "a.mss") {
				err = fmt.Errorf("matched %+v, want a.mss alone", records)
			}
			return err
		}},
		{"Modify", 1, func() error {
			d, err := s.Query("welcome.txt") // relative: not via the cache
			if err != nil {
				return err
			}
			d.Perms = proto.PermRead
			if err := s.Modify("[home]welcome.txt", d); err != nil {
				return err
			}
			if d, err = s.Query("welcome.txt"); err == nil && d.Perms != proto.PermRead {
				err = fmt.Errorf("perms %#x after modify", d.Perms)
			}
			return err
		}},
		{"Rename", 1, func() error {
			if err := s.Rename("[home]a.mss", "[home]notes/b.mss"); err != nil {
				return err
			}
			_, err := s.Query("notes/b.mss")
			return err
		}},
		{"Rename across prefixes", 0, func() error {
			if err := s.Rename("[home]notes/b.mss", "[storage2]b.mss"); !errors.Is(err, proto.ErrIllegalRequest) {
				return fmt.Errorf("err = %v, want ErrIllegalRequest", err)
			}
			return nil
		}},
		{"Link", 1, func() error {
			if err := s.Link("[home]notes/b.mss", "[home]alias.mss"); err != nil {
				return err
			}
			_, err := s.Query("alias.mss")
			return err
		}},
		{"LoadProgram", 1, func() error {
			buf := make([]byte, 2*1024)
			n, err := s.LoadProgram("[bin]hello", buf)
			if err == nil && (n != len(buf) || !strings.HasPrefix(string(buf), "V-PROGRAM:hello")) {
				err = fmt.Errorf("loaded %d bytes, header %q", n, buf[:16])
			}
			return err
		}},
		{"Exec", 1, func() error {
			prog, pid, err := s.Exec("[exec]hello")
			if err == nil && (prog == "" || pid == 0) {
				err = fmt.Errorf("started %q pid %v", prog, pid)
			}
			return err
		}},
		{"Exec of nothing", 1, func() error {
			if _, _, err := s.Exec("[exec]nosuch"); !errors.Is(err, proto.ErrNotFound) {
				return fmt.Errorf("err = %v, want ErrNotFound", err)
			}
			return nil
		}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			want := s.LeaseCacheStats()
			want.Hits += tc.hits
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			if st := s.LeaseCacheStats(); st != want {
				t.Fatalf("cache stats %+v, want %+v", st, want)
			}
		})
	}

	t.Run("negative lease", func(t *testing.T) {
		r := bootLeased(t, 200*time.Millisecond)
		s := r.WS[0].Session
		if _, err := s.Query("[nosuch]x"); !errors.Is(err, proto.ErrNotFound) {
			t.Fatalf("query of absent prefix: %v", err)
		}
		sends := func() uint64 {
			return metrics.Sample{Counters: r.Metrics.Snapshot().Counters}.Total("kernel_sends_total")
		}
		before, negative := sends(), s.LeaseCacheStats().NegativeHits
		if err := s.Modify("[nosuch]x", proto.Descriptor{}); !errors.Is(err, proto.ErrNotFound) {
			t.Fatalf("modify under a negative lease: %v", err)
		}
		if got := sends(); got != before {
			t.Fatalf("a negatively leased modify sent %d messages", got-before)
		}
		if st := s.LeaseCacheStats(); st.NegativeHits != negative+1 {
			t.Fatalf("stats %+v, want one more negative hit", st)
		}
	})

	t.Run("stale pair", func(t *testing.T) {
		r := boot(t)
		s := r.WS[0].Session
		s.EnableNameCache(true)
		buf := make([]byte, 2*1024)
		if _, err := s.LoadProgram("[bin]hello", buf); err != nil {
			t.Fatal(err)
		}
		now := s.Proc().Now()
		eng := r.NewChaos([]chaos.Event{{At: now, Action: chaos.Crash, Host: "fs1"}, {At: now, Action: chaos.Restart, Host: "fs1"}})
		eng.AdvanceTo(now)
		if err := chaos.CheckLog(eng.Log()); err != nil {
			t.Fatal(err)
		}
		// The re-created fs1 holds only the short "hello image" (seedBin).
		if n, err := s.LoadProgram("[bin]hello", buf); err != nil || string(buf[:n]) != "hello image" {
			t.Fatalf("load after fs1's restart: %q, %v", buf[:n], err)
		}
		if st := s.LeaseCacheStats(); st.Stale != 1 || st.Misses != 2 {
			t.Fatalf("stats %+v, want one stale use re-resolved by a second miss", st)
		}
	})
}

// TestFlushRacesProbe: the engine classifiers probe LeasedRoute from
// other goroutines while the session flushes; under -race this fails if
// the flush ever replaces the table instead of deleting through it.
func TestFlushRacesProbe(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	s.EnableNameCache(true)
	home, err := s.MapContext("[home]")
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got, ok := s.LeasedRoute("[home]welcome.txt", 0); ok && got != home {
				t.Errorf("probe read a torn route %v, want %v", got, home)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := s.Query("[home]welcome.txt"); err != nil {
			t.Fatal(err)
		}
		s.FlushNameCache()
	}
	close(stop)
	<-done
	if _, ok := s.LeasedRoute("[home]welcome.txt", 0); ok {
		t.Fatal("flush left the unstamped entry behind")
	}
}
