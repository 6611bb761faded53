// Package rig assembles the paper's testbed in simulation (§6): diskless
// workstations and server machines on a shared Ethernet, file servers
// providing program loading and file access, one context prefix server
// per user workstation, and the simple local servers each workstation
// runs (virtual terminal server, program manager). A services machine
// hosts the printer, Internet and mail servers, and — for the baseline
// comparisons only — a centralized name server.
//
// The rig gives tests, examples and the experiment harness a common,
// deterministic topology.
package rig

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/execserver"
	"repro/internal/fileserver"
	"repro/internal/flight"
	"repro/internal/inetserver"
	"repro/internal/kernel"
	"repro/internal/mailserver"
	"repro/internal/metrics"
	"repro/internal/nameserver"
	"repro/internal/netsim"
	"repro/internal/pipeserver"
	"repro/internal/prefix"
	"repro/internal/printserver"
	"repro/internal/termserver"
	"repro/internal/timeserver"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Config selects the rig's shape.
type Config struct {
	// Users names the workstation users; one workstation is built per
	// user. Default: {"mann", "cheriton"}.
	Users []string
	// Seed drives the network's deterministic RNG.
	Seed int64
	// ReadAhead controls the file servers' buffer-cache read-ahead.
	ReadAhead bool
	// Baseline additionally starts the centralized name server used by
	// the §2.2 comparison experiments.
	Baseline bool
	// Model overrides the cost model (default: the calibrated 3 Mbit
	// model; vtime.Model10Mbit() selects the faster wire).
	Model *vtime.CostModel
	// Retry, when non-nil, enables the client recovery policy
	// (resilience.go) on every session the rig creates.
	Retry *client.RetryPolicy
	// Trace installs a domain tracer recording every IPC primitive and
	// network frame as spans (internal/trace). Tracing charges zero
	// virtual time, so traced runs measure identically to untraced
	// ones.
	Trace bool
	// TraceSample, when non-nil, installs the tracer in sampled mode
	// (PROTOCOL.md §15): head sampling per client lane plus tail
	// retention of anomalous subtrees, O(k) retained spans at any
	// population. Implies Trace.
	TraceSample *trace.SampleConfig

	// Replicas consensus-replicates the fs1 file service and every
	// workstation's prefix table across a replication group of this many
	// members (PROTOCOL.md §11): member hosts fs1, fs1b, fs1c, … carry
	// identical volumes, clients talk to the replica fronts, and the
	// chaos hooks drive failover. 0 or 1 keeps the single-server
	// topology untouched.
	Replicas int

	// FileServerTeam sets how many serving processes each file server
	// runs (§3.1 server teams). 0 or 1 keeps the single-process server.
	FileServerTeam int
	// ServicesTeam does the same for the services-machine servers
	// (printer, Internet, mail, time, pipe).
	ServicesTeam int
	// PrefixTeam does the same for each workstation's prefix server.
	PrefixTeam int

	// Lease, when positive, enables lease granting of this length on
	// every workstation's prefix server (PROTOCOL.md §13). Sessions opt
	// into the lease cache individually with EnableLeaseCache.
	Lease time.Duration
	// AutoTuneLeaseMax, when positive (requires Lease, the floor),
	// replaces the fixed lease length with the per-name auto-tuner
	// (PROTOCOL.md §15): grants grow from Lease toward this cap while a
	// name's observed redefinition rate stays low, and reset to the
	// floor on redefinition.
	AutoTuneLeaseMax time.Duration
}

// teamOpt returns the core option list for a team-size knob: empty for
// 0/1 so the default single-process path is untouched.
func teamOpt(n int) []core.Option {
	if n <= 1 {
		return nil
	}
	return []core.Option{core.WithTeam(n)}
}

// DefaultConfig is the standard two-user configuration.
func DefaultConfig() Config {
	return Config{Users: []string{"mann", "cheriton"}, Seed: 1, ReadAhead: true}
}

// Workstation is one user's diskless workstation: the local servers plus
// a client session whose current context starts at the user's home
// directory.
type Workstation struct {
	Host    *kernel.Host
	User    string
	Prefix  *prefix.Server
	Term    *termserver.Server
	Exec    *execserver.Server
	Session *client.Session
	HomeCtx core.ContextPair

	// PrefixRep is the user's replicated prefix group when
	// Config.Replicas > 1, else nil. Prefix then aliases the
	// workstation-local member.
	PrefixRep *ReplicatedPrefix
}

// Rig is the assembled topology.
type Rig struct {
	Net    *netsim.Network
	Kernel *kernel.Kernel
	Model  *vtime.CostModel

	FS1Host *kernel.Host
	FS1     *fileserver.FileServer
	FS2Host *kernel.Host
	FS2     *fileserver.FileServer

	// FSR is the consensus-replicated fs1 service when Config.Replicas
	// > 1, else nil. FS1Host/FS1 then alias slot 0's host and
	// member-local server.
	FSR *ReplicatedFS

	ServicesHost *kernel.Host
	Print        *printserver.Server
	Inet         *inetserver.Server
	Mail         *mailserver.Server
	Time         *timeserver.Server
	Pipe         *pipeserver.Server

	NSHost *kernel.Host
	NS     *nameserver.Server

	WS []*Workstation

	// BinCtx is the standard program directory context on FS1.
	BinCtx core.ContextPair

	// Tracer is the domain tracer when Config.Trace was set, else nil.
	Tracer *trace.Tracer

	// Metrics is the rig's metrics registry. It is always installed:
	// instruments charge zero virtual time (metrics package doc), so a
	// metered run measures identically to the seed.
	Metrics *metrics.Registry
	// Sampler snapshots the registry on a fixed virtual-time tick.
	// Workloads that want time-series pump it like the chaos engine:
	// r.Sampler.AdvanceTo(session.Proc().Now()).
	Sampler *metrics.Sampler

	// Flight is the rig's always-on flight recorder (PROTOCOL.md §15):
	// a bounded ring journal of naming events, zero virtual cost and
	// zero hot-path allocations, sealed deterministically at engine
	// fences and dumped on chaos-test failure.
	Flight *flight.Recorder

	retry *client.RetryPolicy

	sessMu   sync.Mutex
	sessions []*client.Session
}

// New boots a rig.
func New(cfg Config) (*Rig, error) {
	if len(cfg.Users) == 0 {
		cfg.Users = []string{"mann", "cheriton"}
	}
	model := cfg.Model
	if model == nil {
		model = vtime.DefaultModel()
	}
	net := netsim.New(model, cfg.Seed)
	k := kernel.New(net)
	r := &Rig{Net: net, Kernel: k, Model: model, retry: cfg.Retry}
	r.Metrics = metrics.New()
	k.SetMetrics(r.Metrics)
	net.SetMetrics(r.Metrics)
	r.Sampler = metrics.NewSampler(r.Metrics, 0)
	r.Sampler.SetPoolSource(func() (gets, news uint64) {
		g, n, _ := kernel.EnvPoolStats()
		return g, n
	})
	r.Flight = flight.New(1 << 14)
	k.SetFlight(r.Flight)
	if cfg.TraceSample != nil {
		r.Tracer = trace.NewSampled(*cfg.TraceSample)
		k.SetTracer(r.Tracer)
		net.SetRecorder(r.Tracer)
	} else if cfg.Trace {
		r.Tracer = trace.New()
		k.SetTracer(r.Tracer)
		net.SetRecorder(r.Tracer)
	}

	if err := r.bootFileServers(cfg); err != nil {
		return nil, fmt.Errorf("rig: boot file servers: %w", err)
	}
	if err := r.bootServices(cfg); err != nil {
		return nil, fmt.Errorf("rig: boot services: %w", err)
	}
	for _, user := range cfg.Users {
		ws, err := r.bootWorkstation(cfg, user)
		if err != nil {
			return nil, fmt.Errorf("rig: boot workstation for %s: %w", user, err)
		}
		r.WS = append(r.WS, ws)
	}
	return r, nil
}

// MustNew is New for tests and examples where a boot failure is fatal.
func MustNew(cfg Config) *Rig {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// bootFileServers boots the fs1 service — one server, or Replicas member
// hosts first so their fronts win GetPid's lowest-host preference over
// fs2 — then fs2, then seeds every fs1 volume with the same sequence.
func (r *Rig) bootFileServers(cfg Config) error {
	fsOpts := []fileserver.Option{fileserver.WithReadAhead(cfg.ReadAhead)}
	if cfg.FileServerTeam > 1 {
		fsOpts = append(fsOpts, fileserver.WithTeam(cfg.FileServerTeam))
	}
	var err error
	if cfg.Replicas > 1 {
		r.FSR = &ReplicatedFS{fsOpts: fsOpts}
		for i := 0; i < cfg.Replicas; i++ {
			m, err := r.startFSMember(r.Kernel.NewHost(fsMemberHost(i)))
			if err != nil {
				return err
			}
			r.FSR.Members = append(r.FSR.Members, m)
		}
		r.FS1Host, r.FS1 = r.FSR.Members[0].Host, r.FSR.Members[0].FS
	} else {
		r.FS1Host = r.Kernel.NewHost("fs1")
		if r.FS1, err = startStorage(r.FS1Host, fsOpts...); err != nil {
			return err
		}
	}
	r.FS2Host = r.Kernel.NewHost("fs2")
	if r.FS2, err = startStorage(r.FS2Host, fsOpts...); err != nil {
		return err
	}

	// FS2 holds the archive tree, reachable from FS1 through a
	// cross-server link (Figure 4's curved arrow).
	archiveCtx, err := seedFS2Volume(r.FS2)
	if err != nil {
		return err
	}
	archive := core.ContextPair{Server: r.FS2.PID(), Ctx: archiveCtx}
	binCtx, err := r.onFS1Volumes(func(fs *fileserver.FileServer) (core.ContextID, error) {
		return seedFS1Volume(fs, cfg.Users, archive)
	})
	if err != nil {
		return err
	}
	if r.FSR != nil {
		if err := r.bootFSGroup(cfg); err != nil {
			return err
		}
	}
	r.BinCtx = core.ContextPair{Server: r.fs1PID(), Ctx: binCtx}
	return nil
}

// startStorage boots a file server named after its host and registers
// it as the storage service.
func startStorage(host *kernel.Host, opts ...fileserver.Option) (*fileserver.FileServer, error) {
	fs, err := fileserver.Start(host, host.Name(), opts...)
	if err != nil {
		return nil, err
	}
	return fs, fs.Proc().SetPid(kernel.ServiceStorage, fs.PID(), kernel.ScopeBoth)
}

// seedFS2Volume writes what fs2 holds, at boot and after a cold
// re-creation, and returns the /archive context.
func seedFS2Volume(fs *fileserver.FileServer) (core.ContextID, error) {
	if err := fs.WriteFile("/archive/2026/paper.mss", "system",
		[]byte("Uniform Access to Distributed Name Interpretation\n")); err != nil {
		return 0, err
	}
	return fs.MkdirAll("/archive", "system")
}

// onFS1Volumes applies f to every volume of the fs1 service — each
// member's when replicated, the single server's otherwise (a one-member
// list) — and returns the context id f produced. I-node allocation is
// deterministic, so identical calls give identical ids on every member.
func (r *Rig) onFS1Volumes(f func(*fileserver.FileServer) (core.ContextID, error)) (core.ContextID, error) {
	vols := []*fileserver.FileServer{r.FS1}
	if r.FSR != nil {
		vols = nil
		for _, m := range r.FSR.Members {
			vols = append(vols, m.FS)
		}
	}
	var ctx core.ContextID
	for i, fs := range vols {
		c, err := f(fs)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", fs.Proc().Name(), err)
		}
		if i > 0 && c != ctx {
			return 0, fmt.Errorf("%s: context %d diverged from slot 0's %d", fs.Proc().Name(), c, ctx)
		}
		ctx = c
	}
	return ctx, nil
}

// seedFS1Volume writes the standard fs1 contents into one volume, in a
// fixed order — i-node numbers are object ids on the wire — and returns
// the /bin context.
func seedFS1Volume(fs *fileserver.FileServer, users []string, archive core.ContextPair) (core.ContextID, error) {
	binCtx, err := fs.MkdirAll("/bin", "system")
	if err != nil {
		return 0, err
	}
	if err := fs.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		return 0, err
	}
	if err := fs.SetWellKnown(core.CtxPublic, "/"); err != nil {
		return 0, err
	}
	progs := []struct {
		name string
		size int
	}{{"compiler", 64 * 1024}, {"editor", 64 * 1024}, {"hello", 2 * 1024}}
	for _, pr := range progs {
		if err := fs.WriteFile("/bin/"+pr.name, "system", programImage(pr.name, pr.size)); err != nil {
			return 0, err
		}
	}
	for _, user := range users {
		base := "/users/" + user
		if err := fs.WriteFile(base+"/welcome.txt", user,
			[]byte(fmt.Sprintf("Welcome to the V-System, %s.\n", user))); err != nil {
			return 0, err
		}
		if err := fs.WriteFile(base+"/notes/todo.txt", user,
			[]byte("- finish the naming paper\n- measure Open latency\n")); err != nil {
			return 0, err
		}
	}
	if err := fs.SetWellKnown(core.CtxHome, "/users/"+users[0]); err != nil {
		return 0, err
	}
	return binCtx, fs.AddLink("/shared", "archive", archive)
}

func (r *Rig) bootServices(cfg Config) error {
	var err error
	r.ServicesHost = r.Kernel.NewHost("services")
	team := teamOpt(cfg.ServicesTeam)
	if r.Print, err = printserver.Start(r.ServicesHost, team...); err != nil {
		return err
	}
	if r.Inet, err = inetserver.Start(r.ServicesHost, team...); err != nil {
		return err
	}
	if r.Mail, err = mailserver.Start(r.ServicesHost, team...); err != nil {
		return err
	}
	if r.Time, err = timeserver.Start(r.ServicesHost, team...); err != nil {
		return err
	}
	if r.Pipe, err = pipeserver.Start(r.ServicesHost, team...); err != nil {
		return err
	}
	for _, user := range cfg.Users {
		if err := r.Mail.AddMailbox(user + "@v.stanford.edu"); err != nil {
			return err
		}
	}
	// A pre-existing foreign mailbox, with its externally-imposed name.
	if err := r.Mail.AddMailbox("cheriton@su-score.ARPA"); err != nil {
		return err
	}

	if cfg.Baseline {
		r.NSHost = r.Kernel.NewHost("nameserver")
		if r.NS, err = nameserver.Start(r.NSHost); err != nil {
			return err
		}
	}
	return nil
}

func (r *Rig) bootWorkstation(cfg Config, user string) (*Workstation, error) {
	host := r.Kernel.NewHost("ws-" + user)
	ws := &Workstation{Host: host, User: user}

	var err error
	if cfg.Replicas > 1 {
		if err = r.bootReplicatedPrefix(cfg, ws); err != nil {
			return nil, err
		}
	} else {
		prefixOpts := []prefix.Option{}
		if cfg.PrefixTeam > 1 {
			prefixOpts = append(prefixOpts, prefix.WithTeam(cfg.PrefixTeam))
		}
		if cfg.Lease > 0 && cfg.AutoTuneLeaseMax > 0 {
			prefixOpts = append(prefixOpts, prefix.WithLeaseAutoTune(cfg.Lease, cfg.AutoTuneLeaseMax))
		} else if cfg.Lease > 0 {
			prefixOpts = append(prefixOpts, prefix.WithLease(cfg.Lease))
		}
		if ws.Prefix, err = prefix.Start(host, user, prefixOpts...); err != nil {
			return nil, err
		}
	}
	if ws.Term, err = termserver.Start(host); err != nil {
		return nil, err
	}
	if ws.Exec, err = execserver.Start(host, r.BinCtx); err != nil {
		return nil, err
	}

	homeCtx, err := r.onFS1Volumes(func(fs *fileserver.FileServer) (core.ContextID, error) {
		return fs.MkdirAll("/users/"+user, user)
	})
	if err != nil {
		return nil, err
	}
	ws.HomeCtx = core.ContextPair{Server: r.fs1PID(), Ctx: homeCtx}

	// The standard per-user context prefixes (§6): some refer to file
	// servers, some to special contexts within them, some to generic
	// services via dynamic (service, well-known-context) bindings.
	defs := []struct {
		name string
		bind func(ps *prefix.Server) error
	}{
		{"storage", func(ps *prefix.Server) error { return ps.Define("storage", r.fs1RootPair()) }},
		{"storage2", func(ps *prefix.Server) error { return ps.Define("storage2", r.FS2.RootPair()) }},
		{"home", func(ps *prefix.Server) error { return ps.Define("home", ws.HomeCtx) }},
		{"bin", func(ps *prefix.Server) error {
			return ps.DefineDynamic("bin", kernel.ServiceStorage, core.CtxStdPrograms)
		}},
		{"tty", func(ps *prefix.Server) error { return ps.Define("tty", ws.Term.RootPair()) }},
		{"exec", func(ps *prefix.Server) error { return ps.Define("exec", ws.Exec.RootPair()) }},
		{"print", func(ps *prefix.Server) error {
			return ps.DefineDynamic("print", kernel.ServicePrinter, core.CtxDefault)
		}},
		{"tcp", func(ps *prefix.Server) error {
			return ps.DefineDynamic("tcp", kernel.ServiceInternet, core.CtxDefault)
		}},
		{"mail", func(ps *prefix.Server) error {
			return ps.DefineDynamic("mail", kernel.ServiceMail, core.CtxDefault)
		}},
		{"time", func(ps *prefix.Server) error {
			return ps.DefineDynamic("time", kernel.ServiceTime, core.CtxDefault)
		}},
		{"pipe", func(ps *prefix.Server) error {
			return ps.DefineDynamic("pipe", kernel.ServicePipe, core.CtxDefault)
		}},
	}
	// Prefix tables are boot-seeded identically on every replica member
	// (a single server is its own one-member list).
	for _, ps := range ws.prefixServers() {
		for _, d := range defs {
			if err := d.bind(ps); err != nil {
				return nil, fmt.Errorf("prefix %q: %w", d.name, err)
			}
		}
	}

	ws.Session, err = r.NewSession(ws)
	return ws, err
}

// NewSession creates an additional client session (a "program") on a
// workstation, inheriting the user's prefix server and home directory as
// current context (§6).
func (r *Rig) NewSession(ws *Workstation) (*client.Session, error) {
	proc, err := ws.Host.NewProcess("client-" + ws.User)
	if err != nil {
		return nil, err
	}
	s := client.New(proc, ws.Prefix.PID(), ws.HomeCtx, ws.User)
	// The home context is nameable as [home]; recording that lets the
	// recovery policy re-map the current context if its server dies.
	s.SetCurrentName("[home]")
	if r.retry != nil {
		s.EnableResilience(*r.retry)
	}
	r.sessMu.Lock()
	r.sessions = append(r.sessions, s)
	r.sessMu.Unlock()
	return s, nil
}

// programImage fabricates a deterministic program image of the given
// size.
func programImage(name string, size int) []byte {
	img := make([]byte, size)
	copy(img, "V-PROGRAM:"+name)
	for i := len(name) + 10; i < size; i++ {
		img[i] = byte(i * 31)
	}
	return img
}
