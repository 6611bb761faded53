package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/nameserver"
	"repro/internal/proto"
	"repro/internal/rig"
)

// a1 quantifies the §5.6 argument for context directories: reading one
// directory of N objects versus enumerating names and querying each
// object individually.
func a1() ([]Row, error) {
	r, err := rig.New(rig.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := r.WS[0].Session

	var rows []Row
	for _, n := range []int{10, 100, 1000} {
		dir := fmt.Sprintf("/users/mann/many%d", n)
		for i := 0; i < n; i++ {
			if err := r.FS1.WriteFile(fmt.Sprintf("%s/f%04d", dir, i), "mann", []byte("x")); err != nil {
				return nil, err
			}
		}
		name := fmt.Sprintf("[home]many%d", n)

		start := s.Proc().Now()
		records, err := s.List(name)
		if err != nil {
			return nil, err
		}
		dirTime := s.Proc().Now() - start
		if len(records) != n {
			return nil, fmt.Errorf("directory read returned %d records, want %d", len(records), n)
		}

		// The alternative: use the name list, then query each object.
		start = s.Proc().Now()
		for _, d := range records {
			if _, err := s.Query(name + "/" + d.Name); err != nil {
				return nil, err
			}
		}
		queryTime := s.Proc().Now() - start

		rows = append(rows,
			Row{
				Label:    fmt.Sprintf("context directory read, N=%d", n),
				Paper:    "-",
				Measured: ms(dirTime),
				Note:     "one open + stream read",
			},
			Row{
				Label:    fmt.Sprintf("enumerate + query each, N=%d", n),
				Paper:    "-",
				Measured: ms(queryTime),
				Note:     fmt.Sprintf("%.1fx the directory read", float64(queryTime)/float64(dirTime)),
			})
	}
	return rows, nil
}

// baseline is the §2.2 comparison world: the standard rig plus the
// centralized name server, with a client of it on the first workstation
// beside that workstation's own session.
type baseline struct {
	r    *rig.Rig
	s    *client.Session
	proc *kernel.Process
	nc   *nameserver.Client
}

func newBaseline() (*baseline, error) {
	cfg := rig.DefaultConfig()
	cfg.Baseline = true
	r, err := rig.New(cfg)
	if err != nil {
		return nil, err
	}
	proc, err := r.WS[0].Host.NewProcess("baseline-client")
	if err != nil {
		return nil, err
	}
	return &baseline{r: r, s: r.WS[0].Session, proc: proc, nc: nameserver.NewClient(proc, r.NS.PID())}, nil
}

// register advertises the file name in mann's home directory with the
// centralized name server, under its global name.
func (b *baseline) register(name string) error {
	d, err := b.s.Query("[home]" + name)
	if err != nil {
		return err
	}
	return b.nc.Register(globalName(name), b.r.FS1.PID(), d.ObjectID)
}

// globalName is the centralized model's name for a file in mann's home.
func globalName(name string) string { return "fs1:/users/mann/" + name }

// publish creates the file on fs1 and registers it.
func (b *baseline) publish(name string) error {
	if err := b.r.FS1.WriteFile("/users/mann/"+name, "mann", []byte("data")); err != nil {
		return err
	}
	return b.register(name)
}

// open is the centralized open: name server → owning server, then the
// release of the instance it opened.
func (b *baseline) open(name string) error {
	info, server, err := b.nc.Open(globalName(name), proto.ModeRead)
	if err != nil {
		return err
	}
	rel := &proto.Message{Op: proto.OpReleaseInstance}
	rel.F[0] = uint32(info.ID)
	_, err = b.proc.Send(rel, server)
	return err
}

// a2 quantifies the §2.2 efficiency argument: the centralized model pays
// one extra server interaction (the name server) on every reference.
func a2() ([]Row, error) {
	b, err := newBaseline()
	if err != nil {
		return nil, err
	}
	if err := b.register("welcome.txt"); err != nil {
		return nil, err
	}

	const trials = 50
	// Distributed: open in the current context (the common case the V
	// design optimizes: no third party involved).
	b.s.SetCurrent(b.r.WS[0].HomeCtx)
	total, err := timeOpens(b.s, "welcome.txt", trials)
	if err != nil {
		return nil, err
	}
	distributed := total / trials

	// Centralized: every open goes name server → owning server.
	start := b.proc.Now()
	for i := 0; i < trials; i++ {
		if err := b.open("welcome.txt"); err != nil {
			return nil, err
		}
	}
	centralized := (b.proc.Now() - start) / trials

	return []Row{
		{Label: "V model, current context", Paper: "-", Measured: ms(distributed),
			Note: "1 transaction to the object's server"},
		{Label: "centralized, lookup then open-by-UID", Paper: "-", Measured: ms(centralized),
			Note: "2 transactions; extra name-server hop"},
		{Label: "centralized / distributed", Paper: "-",
			Measured: fmt.Sprintf("%.2fx", float64(centralized)/float64(distributed)),
			Note:     "the per-reference cost §2.2 predicts"},
	}, nil
}

// a3 reproduces the §2.2 consistency argument: a crash between deleting
// an object and updating the name server leaves the system inconsistent;
// the distributed model has no such window because the name dies with the
// object, at the same server.
func a3() ([]Row, error) {
	b, err := newBaseline()
	if err != nil {
		return nil, err
	}
	s := b.s

	// Baseline: create and register files, then delete some with a crash
	// injected between the two servers' updates.
	const total, crashed = 20, 7
	for i := 0; i < total; i++ {
		if err := b.publish(fmt.Sprintf("ns%02d", i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < total; i++ {
		crash := i < crashed
		if err := b.nc.Remove(globalName(fmt.Sprintf("ns%02d", i)), crash); err != nil {
			return nil, err
		}
	}
	dangling, err := b.nc.Verify()
	if err != nil {
		return nil, err
	}

	// Distributed: the same deletions through the V model; a client crash
	// mid-delete either deletes name+object or neither — inject "crashes"
	// by simply observing there is no second step to miss.
	for i := 0; i < total; i++ {
		if err := s.WriteFile(fmt.Sprintf("[home]v%02d", i), []byte("data")); err != nil {
			return nil, err
		}
	}
	for i := 0; i < total; i++ {
		if err := s.Remove(fmt.Sprintf("[home]v%02d", i)); err != nil {
			return nil, err
		}
	}
	vDangling := 0
	for i := 0; i < total; i++ {
		if _, err := s.Query(fmt.Sprintf("[home]v%02d", i)); err == nil {
			vDangling++
		}
	}

	return []Row{
		{Label: fmt.Sprintf("centralized, %d/%d deletes crash mid-way", crashed, total),
			Paper: "inconsistent", Measured: fmt.Sprintf("%d dangling names", len(dangling)),
			Note: "name server still advertises dead objects"},
		{Label: "V model, same workload", Paper: "consistent",
			Measured: fmt.Sprintf("%d dangling names", vDangling),
			Note:     "name and object die in one server operation"},
	}, nil
}

// a4 reproduces the §2.2 reliability argument: a name-server failure
// makes objects unreachable even though the servers holding them are up.
func a4() ([]Row, error) {
	b, err := newBaseline()
	if err != nil {
		return nil, err
	}
	const total = 10
	for i := 0; i < total; i++ {
		if err := b.publish(fmt.Sprintf("r%02d", i)); err != nil {
			return nil, err
		}
	}

	// Take the name server down. The file server stays up.
	b.r.NSHost.Crash()

	centralOK, vOK := 0, 0
	for i := 0; i < total; i++ {
		if b.open(fmt.Sprintf("r%02d", i)) == nil {
			centralOK++
		}
	}
	for i := 0; i < total; i++ {
		if data, err := b.s.ReadFile(fmt.Sprintf("[home]r%02d", i)); err == nil && len(data) > 0 {
			vOK++
		}
	}

	return []Row{
		{Label: "centralized: opens that succeed", Paper: "0 (central failure point)",
			Measured: fmt.Sprintf("%d/%d", centralOK, total),
			Note:     "file server is up, but nothing can be named"},
		{Label: "V model: opens that succeed", Paper: "all (name lives with object)",
			Measured: fmt.Sprintf("%d/%d", vOK, total),
			Note:     "prefix server is per-user and local"},
	}, nil
}

// restartFS1 crashes and restarts fs1 through the rig's chaos engine at
// the first session's virtual time, the one way fs1 is re-created: cold,
// under a new pid, holding only /bin/hello (the §4.2 rebinding
// scenario). It fails if either event was not carried out or fs1 kept
// its pid.
func restartFS1(r *rig.Rig) error {
	old, now := r.FS1.PID(), r.WS[0].Session.Proc().Now()
	eng := r.NewChaos([]chaos.Event{{At: now, Action: chaos.Crash, Host: "fs1"}, {At: now, Action: chaos.Restart, Host: "fs1"}})
	eng.AdvanceTo(now)
	if err := chaos.CheckLog(eng.Log()); err != nil || r.FS1.PID() == old {
		return fmt.Errorf("fs1 not re-created under a new pid: %s", strings.Join(eng.Log(), "; "))
	}
	return nil
}

// a5 reproduces the §4.2/§6 rebinding scenario: the storage server
// crashes and is re-created with a different pid. Dynamic
// (service, well-known-context) prefix bindings rebind via GetPid;
// static (pid, context) bindings dangle.
func a5() ([]Row, error) {
	r, err := rig.New(rig.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := r.WS[0].Session

	if err := s.AddName("staticbin", r.BinCtx); err != nil {
		return nil, err
	}
	if _, err := s.ReadFile("[bin]hello"); err != nil {
		return nil, err
	}
	if _, err := s.ReadFile("[staticbin]hello"); err != nil {
		return nil, err
	}

	oldPid := r.FS1.PID()
	if err := restartFS1(r); err != nil {
		return nil, err
	}

	start := s.Proc().Now()
	_, dynErr := s.ReadFile("[bin]hello")
	rebindTime := s.Proc().Now() - start
	_, statErr := s.ReadFile("[staticbin]hello")

	dynRow := "recovers"
	if dynErr != nil {
		dynRow = "FAILS: " + dynErr.Error()
	}
	statRow := "dangles (nonexistent process)"
	if statErr == nil {
		statRow = "UNEXPECTEDLY works"
	}
	return []Row{
		{Label: fmt.Sprintf("dynamic [bin] binding (old pid %v → new %v)", oldPid, r.FS1.PID()),
			Paper: "rebinds via GetPid", Measured: dynRow,
			Note: fmt.Sprintf("first use after restart: %s", ms(rebindTime))},
		{Label: "static [staticbin] binding", Paper: "dangles", Measured: statRow,
			Note: "pid-bound names die with the process"},
	}, nil
}

// a6 explores the §7 future-work direction: a context implemented
// transparently by a group of servers, addressed with multicast Send,
// compared against reaching the same context through the prefix server.
func a6() ([]Row, error) {
	r, err := rig.New(rig.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := r.WS[0].Session

	// Replicate the program directory on FS2 and form a storage group.
	if err := r.MirrorBinOnFS2(); err != nil {
		return nil, err
	}
	gid, err := r.Kernel.CreateGroup()
	if err != nil {
		return nil, err
	}
	if err := r.Kernel.JoinGroup(gid, r.FS1.PID()); err != nil {
		return nil, err
	}
	if err := r.Kernel.JoinGroup(gid, r.FS2.PID()); err != nil {
		return nil, err
	}

	const trials = 20
	// Via the prefix server (the present mechanism).
	total, err := timeOpens(s, "[bin]hello", trials)
	if err != nil {
		return nil, err
	}
	viaPrefix := total / trials

	// Via multicast to the group: the client sends the CSname request to
	// the group id; the first member to reply wins. Both members are
	// served, so they answer in pid order on the sender's goroutine.
	proc := s.Proc()
	groupOpen := func() (*proto.Message, error) {
		req := &proto.Message{Op: proto.OpCreateInstance}
		proto.SetCSName(req, uint32(core.CtxStdPrograms), "hello")
		proto.SetOpenMode(req, proto.ModeRead)
		return proc.Send(req, gid)
	}
	start := proc.Now()
	for i := 0; i < trials; i++ {
		reply, err := groupOpen()
		if err != nil {
			return nil, err
		}
		if err := proto.ReplyError(reply.Op); err != nil {
			return nil, err
		}
		rel := &proto.Message{Op: proto.OpReleaseInstance}
		rel.F[0] = reply.F[0]
		owner := kernel.PID(proto.InstanceOwner(reply))
		if _, err := proc.Send(rel, owner); err != nil {
			return nil, err
		}
	}
	viaGroup := (proc.Now() - start) / trials

	// Availability: with FS1 down, the group still answers.
	r.NewChaos([]chaos.Event{{At: proc.Now(), Action: chaos.Crash, Host: "fs1"}}).AdvanceTo(proc.Now())
	survived := "fails"
	if reply, err := groupOpen(); err == nil && reply.Op == proto.ReplyOK {
		survived = "succeeds"
	}

	return []Row{
		{Label: "open via [bin] prefix", Paper: "-", Measured: ms(viaPrefix),
			Note: "local hop + prefix processing + forward"},
		{Label: "open via group multicast", Paper: "-", Measured: ms(viaGroup),
			Note: "one multicast frame, first reply wins"},
		{Label: "group open with one replica down", Paper: "transparent", Measured: survived,
			Note: "the surviving member answers"},
	}, nil
}

// a7 quantifies the §5.6 pattern-matching extension the paper says it was
// considering: server-side filtering saves collating and transmitting
// records the client does not want.
func a7() ([]Row, error) {
	r, err := rig.New(rig.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := r.WS[0].Session

	const total, matching = 200, 10
	for i := 0; i < total; i++ {
		suffix := "dat"
		if i < matching {
			suffix = "mss"
		}
		path := fmt.Sprintf("/users/mann/big/f%03d.%s", i, suffix)
		if err := r.FS1.WriteFile(path, "mann", []byte("x")); err != nil {
			return nil, err
		}
	}

	start := s.Proc().Now()
	all, err := s.List("[home]big")
	if err != nil {
		return nil, err
	}
	fullTime := s.Proc().Now() - start

	start = s.Proc().Now()
	filtered, err := s.ListPattern("[home]big", "*.mss")
	if err != nil {
		return nil, err
	}
	filteredTime := s.Proc().Now() - start
	if len(all) != total || len(filtered) != matching {
		return nil, fmt.Errorf("listing sizes %d/%d", len(all), len(filtered))
	}

	fullBytes := len(proto.EncodeDescriptors(all))
	filteredBytes := len(proto.EncodeDescriptors(filtered))

	return []Row{
		{Label: "full directory read", Paper: "-", Measured: ms(fullTime),
			Note: fmt.Sprintf("%d records, %d bytes", total, fullBytes)},
		{Label: "pattern *.mss read", Paper: "-", Measured: ms(filteredTime),
			Note: fmt.Sprintf("%d records, %d bytes", matching, filteredBytes)},
		{Label: "transfer saved", Paper: "-",
			Measured: fmt.Sprintf("%.1f%%", 100*(1-float64(filteredBytes)/float64(fullBytes))),
			Note:     "server filters before collation"},
	}, nil
}

// a8 quantifies both halves of the §2.2 sentence "Caching the name in
// the client would introduce inconsistency problems and only benefit the
// few applications that reuse names": the latency won by a client-side
// prefix-resolution cache on reuse, and the stale-resolution failures it
// suffers when a server is re-created. Each variant runs in its own
// fresh rig so the per-process virtual clocks stay comparable.
func a8() ([]Row, error) {
	const trials = 20

	// variant builds a rig, applies the cache configuration, warms one
	// open, measures per-open latency, then crashes and re-creates the
	// storage server and counts failing opens.
	variant := func(configure func(*client.Session)) (per float64, failures int, stale int, err error) {
		r, err := rig.New(rig.DefaultConfig())
		if err != nil {
			return 0, 0, 0, err
		}
		s := r.WS[0].Session
		if configure != nil {
			configure(s)
		}
		// Warm: the first open pays any cache miss.
		if _, err := timeOpens(s, "[bin]hello", 1); err != nil {
			return 0, 0, 0, err
		}
		total, err := timeOpens(s, "[bin]hello", trials)
		if err != nil {
			return 0, 0, 0, err
		}
		per = float64(total) / float64(trials)

		// The storage server crashes and is re-created with a new pid.
		if err := restartFS1(r); err != nil {
			return 0, 0, 0, err
		}
		for i := 0; i < trials; i++ {
			f, err := s.Open("[bin]hello", proto.ModeRead)
			if err != nil {
				failures++
				continue
			}
			if err := f.Close(); err != nil {
				return 0, 0, 0, err
			}
		}
		return per, failures, s.LeaseCacheStats().Stale, nil
	}

	plainPer, plainFail, _, err := variant(nil)
	if err != nil {
		return nil, err
	}
	naivePer, naiveFail, _, err := variant(func(s *client.Session) { s.EnableNameCache(false) })
	if err != nil {
		return nil, err
	}
	_, retryFail, retryStale, err := variant(func(s *client.Session) { s.EnableNameCache(true) })
	if err != nil {
		return nil, err
	}

	return []Row{
		{Label: "open via prefix server, per use", Paper: "-", Measured: msFloat(plainPer),
			Note: "dynamic [bin]: prefix processing + GetPid each use"},
		{Label: "open with cached resolution (warm)", Paper: "benefits name reuse", Measured: msFloat(naivePer),
			Note: fmt.Sprintf("%.1fx faster on reuse", plainPer/naivePer)},
		{Label: "after server re-creation, no cache", Paper: "-",
			Measured: fmt.Sprintf("%d/%d opens fail", plainFail, trials),
			Note:     "prefix server rebinds via GetPid"},
		{Label: "after server re-creation, naive cache", Paper: "inconsistency problems",
			Measured: fmt.Sprintf("%d/%d opens fail", naiveFail, trials),
			Note:     "stale (pid, ctx) until the cache is flushed"},
		{Label: "cache with invalidate-and-retry", Paper: "-",
			Measured: fmt.Sprintf("%d/%d fail, %d stale use(s) absorbed", retryFail, trials, retryStale),
			Note:     "pays a failed transaction per stale entry"},
	}, nil
}

// msFloat renders a float64 of virtual nanoseconds as milliseconds.
func msFloat(ns float64) string {
	return fmt.Sprintf("%.2f ms", ns/1e6)
}
