// Package repro's top-level benchmarks: one testing.B benchmark per table
// and figure in the paper's evaluation, measuring the real (wall-clock)
// cost of the reproduced code paths. The paper's *virtual-time* numbers —
// the ones compared against the published values — are produced by
// cmd/vbench (internal/experiments); these benchmarks establish that the
// implementation itself is efficient and allocation-sane.
package repro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/nameserver"
	"repro/internal/popgen"
	"repro/internal/proto"
	"repro/internal/rig"
	"repro/internal/trace"
)

// benchRig boots a standard rig for benchmarks.
func benchRig(b *testing.B, cfg rig.Config) *rig.Rig {
	b.Helper()
	r, err := rig.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// startEcho starts an echo that replies to every request with the same
// message: a served process (kernel.Process.Serve), whose handler each
// sender runs — the path every server takes.
func startEcho(b *testing.B, h *kernel.Host) *kernel.Process {
	b.Helper()
	p, err := h.NewProcess("echo")
	if err != nil {
		b.Fatal(err)
	}
	var reply proto.Message
	p.Serve(func(msg *proto.Message, from kernel.PID) {
		reply = *msg
		reply.Op = proto.ReplyOK
		_ = p.Reply(&reply, from)
	})
	return p
}

// BenchmarkE1MessageTransaction measures the Figure 1 Send-Receive-Reply
// primitive (§3.1), same-host and cross-host, against a served echo.
func BenchmarkE1MessageTransaction(b *testing.B) {
	for _, leg := range []struct {
		name   string
		remote bool
	}{
		{"local", false},
		{"remote", true},
	} {
		b.Run(leg.name, func(b *testing.B) {
			r := benchRig(b, rig.DefaultConfig())
			host := r.WS[0].Host
			echoHost := host
			if leg.remote {
				echoHost = r.FS1Host
			}
			echo := startEcho(b, echoHost)
			client, err := host.NewProcess("bench-client")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, echo.PID()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2ProgramLoad measures the §3.1 64 KB MoveTo program load.
func BenchmarkE2ProgramLoad(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	s := r.WS[0].Session
	buf := make([]byte, 64*1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.LoadProgram("[bin]editor", buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3SequentialRead measures the §3.1 page-by-page streaming read.
func BenchmarkE3SequentialRead(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	const pages = 16
	payload := make([]byte, pages*512)
	if err := r.FS1.WriteFile("/users/mann/bench.dat", "mann", payload); err != nil {
		b.Fatal(err)
	}
	s := r.WS[0].Session
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := s.Open("[home]bench.dat", proto.ModeRead)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.ReadAll(); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1Open measures the §6 Open table: the four quadrants of
// {current context, via prefix} x {server local, server remote}.
func BenchmarkT1Open(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	ws := r.WS[0]
	s := ws.Session
	localFS, err := fileserver.Start(ws.Host, "local")
	if err != nil {
		b.Fatal(err)
	}
	if err := localFS.WriteFile("/f.txt", ws.User, []byte("x")); err != nil {
		b.Fatal(err)
	}
	if err := ws.Prefix.Define("local", localFS.RootPair()); err != nil {
		b.Fatal(err)
	}
	localCtx, err := s.MapContext("[local]")
	if err != nil {
		b.Fatal(err)
	}

	cases := []struct {
		name    string
		csname  string
		current core.ContextPair
	}{
		{"current_local", "f.txt", localCtx},
		{"current_remote", "welcome.txt", ws.HomeCtx},
		{"prefix_local", "[local]f.txt", core.ContextPair{}},
		{"prefix_remote", "[home]welcome.txt", core.ContextPair{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			if c.current != (core.ContextPair{}) {
				s.SetCurrent(c.current)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := s.Open(c.csname, proto.ModeRead)
				if err != nil {
					b.Fatal(err)
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF2PID measures the Figure 2 pid subfield operations.
func BenchmarkF2PID(b *testing.B) {
	b.ReportAllocs()
	var sink kernel.PID
	for i := 0; i < b.N; i++ {
		p := kernel.MakePID(3, uint16(i))
		if p.Host() == 3 && !p.IsGroup() {
			sink = p
		}
	}
	_ = sink
}

// BenchmarkF3Descriptor measures the Figure 3 typed description record
// encode/decode round trip.
func BenchmarkF3Descriptor(b *testing.B) {
	d := proto.Descriptor{
		Tag: proto.TagFile, ObjectID: 42, Size: 4096, Modified: 123456789,
		Perms: proto.PermRead | proto.PermWrite, Name: "naming.mss", Owner: "cheriton",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := d.AppendEncoded(nil)
		if _, _, err := proto.DecodeDescriptor(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF4ForestTraversal measures the Figure 4 cross-server name
// resolution: one request forwarded mid-interpretation from FS1 to FS2.
func BenchmarkF4ForestTraversal(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	s := r.WS[0].Session
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("[storage]/shared/archive/2026/paper.mss"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA1Directory measures the §5.6 comparison: reading a context
// directory versus querying each object, at N=100.
func BenchmarkA1Directory(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	s := r.WS[0].Session
	const n = 100
	for i := 0; i < n; i++ {
		if err := r.FS1.WriteFile(fmt.Sprintf("/users/mann/d/f%03d", i), "mann", []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("directory_read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			records, err := s.List("[home]d")
			if err != nil || len(records) != n {
				b.Fatalf("%d records, %v", len(records), err)
			}
		}
	})
	b.Run("enumerate_query", func(b *testing.B) {
		records, err := s.List("[home]d")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range records {
				if _, err := s.Query("[home]d/" + d.Name); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkA2Models measures the §2.2 efficiency comparison: V-model open
// versus centralized lookup-then-open.
func BenchmarkA2Models(b *testing.B) {
	cfg := rig.DefaultConfig()
	cfg.Baseline = true
	r := benchRig(b, cfg)
	s := r.WS[0].Session
	d, err := s.Query("[home]welcome.txt")
	if err != nil {
		b.Fatal(err)
	}
	nsProc, err := r.WS[0].Host.NewProcess("baseline-bench")
	if err != nil {
		b.Fatal(err)
	}
	nc := nameserver.NewClient(nsProc, r.NS.PID())
	const gname = "fs1:/users/mann/welcome.txt"
	if err := nc.Register(gname, r.FS1.PID(), d.ObjectID); err != nil {
		b.Fatal(err)
	}

	b.Run("distributed", func(b *testing.B) {
		s.SetCurrent(r.WS[0].HomeCtx)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := s.Open("welcome.txt", proto.ModeRead)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("centralized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			info, server, err := nc.Open(gname, proto.ModeRead)
			if err != nil {
				b.Fatal(err)
			}
			rel := &proto.Message{Op: proto.OpReleaseInstance}
			rel.F[0] = uint32(info.ID)
			if _, err := nsProc.Send(rel, server); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA6Multicast measures the §7 group-send name mapping against the
// prefix-server path.
func BenchmarkA6Multicast(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	s := r.WS[0].Session
	if err := r.FS2.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		b.Fatal(err)
	}
	if err := r.FS2.WriteFile("/bin/hello", "system", []byte("replica")); err != nil {
		b.Fatal(err)
	}
	gid, err := r.Kernel.CreateGroup()
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Kernel.JoinGroup(gid, r.FS1.PID()); err != nil {
		b.Fatal(err)
	}
	if err := r.Kernel.JoinGroup(gid, r.FS2.PID()); err != nil {
		b.Fatal(err)
	}
	proc := s.Proc()

	b.Run("via_prefix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query("[bin]hello"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via_group", func(b *testing.B) {
		// Query, not open: a non-idempotent request multicast to a group
		// leaves orphaned state (an open instance) at every member that
		// loses the first-reply race — the practical caveat of §7-style
		// group contexts, demonstrated by TestGroupOpenLeaksAtLosers.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := &proto.Message{Op: proto.OpQueryObject}
			proto.SetCSName(req, uint32(core.CtxStdPrograms), "hello")
			reply, err := proc.Send(req, gid)
			if err != nil {
				b.Fatal(err)
			}
			if err := proto.ReplyError(reply.Op); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5PrefixTable measures prefix definition and use — the
// operations behind the §6 space/speed observations.
func BenchmarkE5PrefixTable(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	ws := r.WS[0]
	b.Run("define", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Unique across benchmark reruns (b.N grows in rounds).
			defineSeq++
			if err := ws.Prefix.Define(fmt.Sprintf("p%08d", defineSeq), r.FS1.RootPair()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("use", func(b *testing.B) {
		s := ws.Session
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := s.Open("[home]welcome.txt", proto.ModeRead)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// defineSeq keeps prefix names unique across benchmark rounds.
var defineSeq int

// benchLive keeps what the last population benchmark drove reachable
// after it returns, so the heap profile `make profile` takes at the end
// of the run (after a final GC) shows the booted state's live bytes.
var benchLive any

// benchTopology drives one sharded workload per iteration on a freshly
// booted topology (setup excluded from the timer) and reports wall-clock
// requests per second.
func benchTopology(b *testing.B, boot func() (*rig.Topology, error), drive func([]*rig.WorkloadClient) *rig.WorkloadResult) {
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchLive = nil
		sw, err := boot()
		if err != nil {
			b.Fatal(err)
		}
		benchLive = sw
		b.StartTimer()
		res := drive(sw.Clients)
		b.StopTimer()
		total += res.Requests
		// Tear down the topology's server goroutines between iterations.
		for _, h := range sw.Hosts {
			h.Crash()
		}
		if sw.PrefixHost != nil {
			sw.PrefixHost.Crash()
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "req/s")
}

// benchShardedWorkload is benchTopology over the sharded closed-loop
// workload: after each client's first resolution, every lane is all
// cache hits on its own shard.
func benchShardedWorkload(b *testing.B, drive func([]*rig.WorkloadClient) *rig.WorkloadResult) {
	sc := rig.Scenario{Kind: rig.SharedPrefix, Shards: 8, ClientsPerShard: 8, Requests: 25, FileServerTeam: 1, Seed: 42}
	benchTopology(b, sc.Boot, drive)
}

func runEngine(cs []*rig.WorkloadClient) *rig.WorkloadResult {
	return rig.RunWorkloadEngine(cs, rig.EngineOptions{})
}

// BenchmarkWorkloadSequential is the single-threaded driver baseline for
// the engine comparison below.
func BenchmarkWorkloadSequential(b *testing.B) { benchShardedWorkload(b, rig.RunWorkload) }

// BenchmarkWorkloadEngine measures the conservative engine's wall-clock
// throughput over the same workload, one goroutine-lane per shard (real
// parallelism is bounded by GOMAXPROCS; sweep it with -cpu). The
// virtual-time results are identical to the sequential driver's (see
// TestParallelDriverEquivalence); only wall-clock time changes.
func BenchmarkWorkloadEngine(b *testing.B) { benchShardedWorkload(b, runEngine) }

// benchZipf is benchTopology over one open-loop population workload on
// the repository benchmark's 4 shards x 2 clients, through the engine.
func benchZipf(b *testing.B, cfg rig.ZipfConfig) {
	cfg.Shards, cfg.ClientsPerShard, cfg.Seed = 4, 2, 42
	benchTopology(b, func() (*rig.Topology, error) { return rig.NewZipfWorkload(cfg) }, runEngine)
}

// BenchmarkZipfMiss and BenchmarkZipfHit are the repository benchmark's
// resolve_miss and resolve_hit shapes (bench/zipf.go) at a tenth of the
// size, inside the root module where `go test` can profile them: `make
// profile W=ZipfMiss`. bench/ stays the ledger; these exist so a claim
// about where its time goes starts from a profile.
func BenchmarkZipfMiss(b *testing.B) {
	benchZipf(b, rig.ZipfConfig{Population: 10_000, Skew: 0.5, Lease: 20 * time.Millisecond,
		Interarrival: 56 * time.Millisecond, Arrivals: 1_500})
}

func BenchmarkZipfHit(b *testing.B) {
	benchZipf(b, rig.ZipfConfig{Population: 10_000, Skew: 1.3, Lease: 10 * time.Second,
		Interarrival: 20 * time.Millisecond, Arrivals: 6_000})
}

// BenchmarkZipfObserved is the repository benchmark's resolve_observed
// shape (bench/zipf.go) at a tenth of the size, for `make profile
// W=ZipfObserved`: resolve_miss traffic with every observer on through
// its public install — the sampled tracer, a registry on kernel and
// network, the flight recorder sealed at one engine fence per virtual
// second, the hot-name sketch published after the drive. It claims
// nothing.
func BenchmarkZipfObserved(b *testing.B) {
	cfg := rig.ZipfConfig{Population: 10_000, Skew: 0.5, Lease: 20 * time.Millisecond,
		Interarrival: 56 * time.Millisecond, Arrivals: 600, Shards: 4, ClientsPerShard: 2, Seed: 42,
		TraceSample: &trace.SampleConfig{HeadEvery: 32, SlowOver: 50 * time.Millisecond}}
	var zw *rig.ZipfWorkload
	var reg *metrics.Registry
	benchTopology(b, func() (_ *rig.Topology, err error) {
		if zw, err = rig.NewZipfWorkload(cfg); err != nil {
			return nil, err
		}
		reg = metrics.New()
		zw.Kernel.SetMetrics(reg)
		zw.Net.SetMetrics(reg)
		return zw, nil
	}, func(cs []*rig.WorkloadClient) *rig.WorkloadResult {
		fences := rig.SealFlightAtFences(engine.Fences{
			Next: func(after time.Duration) (time.Duration, bool) {
				return (after/time.Second + 1) * time.Second, true
			},
		}, zw.Flight)
		res := rig.RunWorkloadEngine(cs, rig.EngineOptions{Fences: fences})
		zw.Prefix.PublishNamestat(reg)
		return res
	})
}

// BenchmarkZipfChurn is the repository benchmark's define_churn shape
// (bench/zipf.go) at a tenth of the size, for `make profile W=ZipfChurn`:
// 3×10⁴ names bulk-bound, eight leased readers, and one admin session on
// its own host deleting and re-adding Zipf-drawn names — each half of a
// redefinition runs the invalidation barrier against whoever leased the
// name. A redefinition revokes leases in every lane, so the single-lane
// driver runs it, as in the ledger. It claims nothing.
func BenchmarkZipfChurn(b *testing.B) {
	const redefines, gap = 1_000, 64 * time.Millisecond
	cfg := rig.ZipfConfig{Population: 30_000, Skew: 0.99, Lease: 2 * time.Second,
		Interarrival: gap, Arrivals: 1_125, Shards: 4, ClientsPerShard: 2, Seed: 42}
	cfg.Pop = popgen.NewPopulation(cfg.Population, cfg.Skew, 1)
	sched := popgen.Arrivals(redefines, 0, gap, 301)
	benchTopology(b, func() (*rig.Topology, error) {
		zw, err := rig.NewZipfWorkload(cfg)
		if err != nil {
			return nil, err
		}
		host := zw.Kernel.NewHost("admin")
		proc, err := host.NewProcess("admin")
		if err != nil {
			return nil, err
		}
		ranks := cfg.Pop.Sampler(300)
		zw.Hosts = append(zw.Hosts, host)
		zw.Clients = append(zw.Clients, &rig.WorkloadClient{
			Session:  client.New(proc, zw.Prefix.PID(), zw.Shards[0].RootPair(), "admin"),
			Requests: redefines,
			Lane:     cfg.Shards,
			Arrive:   func(i int) time.Duration { return sched[i] },
			Op: func(s *client.Session, i int) error {
				r := ranks.NextRank()
				if err := s.DeleteName(cfg.Pop.Names[r]); err != nil {
					return err
				}
				return s.AddName(cfg.Pop.Names[r], zw.Shards[r%cfg.Shards].RootPair())
			},
		})
		return zw, nil
	}, func(cs []*rig.WorkloadClient) *rig.WorkloadResult {
		res := rig.RunWorkload(cs)
		if admin := res.Clients[len(cs)-1]; admin.Errors != 0 || admin.Completed != redefines {
			b.Fatalf("admin: %d of %d redefinitions completed, %d failed", admin.Completed, redefines, admin.Errors)
		}
		return res
	})
}

// BenchmarkFileIO is the repository benchmark's paper_fileio shape
// (bench/fileio.go) at a tenth of the size, for `make profile W=FileIO`:
// the paper's rig, ~2 000 files of 2-6 KB in 20 directories over both
// file servers seeded through a session, then four closed-loop programs
// running the fixed mix Query, ReadFile, WriteFile (0.5-1.5 KB), List, all
// by [prefix]-names, every answer checked. One iteration is 6 000
// operations. Like the Zipf pair it claims nothing: bench/ is the ledger.
func BenchmarkFileIO(b *testing.B) {
	const dirs, opsPerClient, scratchSlots = 20, 1500, 16
	r := benchRig(b, rig.DefaultConfig())
	rng := rand.New(rand.NewSource(42))
	block := make([]byte, 6144)
	rng.Read(block)
	// A file's bytes are a prefix of block with its identity stamped over
	// the first 8, so a read is checked without building what it expects.
	contents := func(n int, id uint64) []byte {
		c := append([]byte(nil), block[:n]...)
		binary.LittleEndian.PutUint64(c, id)
		return c
	}
	seeder := r.WS[0].Session
	for _, root := range []string{"[storage]bench", "[storage2]bench", "[storage]bench/scratch"} {
		if err := seeder.MakeContext(root); err != nil {
			b.Fatal(err)
		}
	}
	dirNames := make([]string, dirs)
	fileNames := make([][]string, dirs)
	sizes := make([][]int, dirs)
	for d := range dirNames {
		dirNames[d] = fmt.Sprintf("[storage]bench/d%03d", d)
		if d%2 == 1 {
			dirNames[d] = fmt.Sprintf("[storage2]bench/d%03d", d)
		}
		if err := seeder.MakeContext(dirNames[d]); err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 80+rng.Intn(41); f++ {
			name, size := fmt.Sprintf("%s/f%03d", dirNames[d], f), 2048+rng.Intn(4097)
			if err := seeder.WriteFile(name, contents(size, uint64(d)<<16|uint64(f))); err != nil {
				b.Fatal(err)
			}
			fileNames[d] = append(fileNames[d], name)
			sizes[d] = append(sizes[d], size)
		}
	}

	wrong := errors.New("wrong answer")
	var clients []*rig.WorkloadClient
	for c := 0; c < 2*len(r.WS); c++ {
		sess, err := r.NewSession(r.WS[c/2])
		if err != nil {
			b.Fatal(err)
		}
		draw := rand.New(rand.NewSource(int64(43 + c)))
		var scratch [scratchSlots]string
		for slot := range scratch {
			scratch[slot] = fmt.Sprintf("[storage]bench/scratch/c%d-%02d", c, slot)
		}
		clients = append(clients, &rig.WorkloadClient{Session: sess, Requests: opsPerClient,
			Op: func(s *client.Session, i int) error {
				d := draw.Intn(dirs)
				f := draw.Intn(len(fileNames[d]))
				// The program computes between its I/O calls.
				s.Proc().ChargeCompute(time.Duration(draw.Intn(int(20 * time.Millisecond))))
				switch i % 4 {
				case 0:
					desc, err := s.Query(fileNames[d][f])
					if err != nil {
						return err
					}
					if desc.Tag != proto.TagFile || int(desc.Size) != sizes[d][f] {
						return wrong
					}
				case 1:
					data, err := s.ReadFile(fileNames[d][f])
					if err != nil {
						return err
					}
					if len(data) != sizes[d][f] || binary.LittleEndian.Uint64(data) != uint64(d)<<16|uint64(f) ||
						!bytes.Equal(data[8:], block[8:len(data)]) {
						return wrong
					}
				case 2:
					return s.WriteFile(scratch[i/4%scratchSlots], contents(512+draw.Intn(1025), uint64(i)))
				case 3:
					entries, err := s.List(dirNames[d])
					if err != nil {
						return err
					}
					if len(entries) != len(fileNames[d]) {
						return wrong
					}
				}
				return nil
			}})
	}
	benchLive = r
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := rig.RunWorkload(clients)
		for c, stats := range res.Clients {
			if stats.Errors != 0 || stats.Completed != opsPerClient {
				b.Fatalf("client %d: %d of %d operations completed, %d failed", c, stats.Completed, opsPerClient, stats.Errors)
			}
		}
	}
}
