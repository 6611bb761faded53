// Package rig assembles the paper's testbed in simulation (§6): diskless
// workstations and server machines on a shared Ethernet, file servers
// providing program loading and file access, one context prefix server
// per user workstation, and the simple local servers each workstation
// runs (virtual terminal server, program manager). A services machine
// hosts the printer, Internet and mail servers, and — for the baseline
// comparisons only — a centralized name server.
//
// The rig gives tests, examples and the experiment harness a common,
// deterministic topology. The testbed is one Scenario kind, Paper: this
// file is its boot step, and Config, Rig and New are its names for
// Scenario, Topology and Boot (scenario.go).
package rig

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/execserver"
	"repro/internal/fileserver"
	"repro/internal/inetserver"
	"repro/internal/kernel"
	"repro/internal/mailserver"
	"repro/internal/metrics"
	"repro/internal/nameserver"
	"repro/internal/pipeserver"
	"repro/internal/prefix"
	"repro/internal/printserver"
	"repro/internal/termserver"
	"repro/internal/timeserver"
)

// Config is the paper testbed's name for a Scenario: New boots it as
// Kind Paper.
type Config = Scenario

// DefaultConfig is the standard two-user configuration.
func DefaultConfig() Config {
	return Config{Kind: Paper, Users: []string{"mann", "cheriton"}, Seed: 1, ReadAhead: true}
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
}

// Rig is the booted paper testbed.
type Rig = Topology

// New boots cfg as the paper testbed.
func New(cfg Config) (*Rig, error) {
	cfg.Kind = Paper
	return cfg.Boot()
}

// checkPaper refuses a negative Requests and the sharded kinds' fields,
// and fills in the default users.
func (sc *Scenario) checkPaper() error {
	if sc.Requests < 0 {
		return fmt.Errorf("paper testbed: requests must not be negative, got %d", sc.Requests)
	}
	if len(sc.Users) == 0 {
		sc.Users = []string{"mann", "cheriton"}
	}
	return sc.ignores("Shards ClientsPerShard CacheTier Population", sc.Shards != 0, sc.ClientsPerShard != 0, sc.CacheTier, sc.Population != 0)
}

// bootPaper is the Paper kind's step: the metrics registry and its
// sampler, the file servers, the services machine, then one workstation
// per user, whose first session is the one client Run paces (pace).
func (r *Rig) bootPaper() error {
	r.Metrics = metrics.New()
	r.Kernel.SetMetrics(r.Metrics)
	r.Net.SetMetrics(r.Metrics)
	r.Sampler = metrics.NewSampler(r.Metrics, 0)
	if err := r.bootFileServers(); err != nil {
		return fmt.Errorf("rig: boot file servers: %w", err)
	}
	if err := r.bootServices(); err != nil {
		return fmt.Errorf("rig: boot services: %w", err)
	}
	for _, user := range r.sc.Users {
		ws, err := r.bootWorkstation(user)
		if err != nil {
			return fmt.Errorf("rig: boot workstation for %s: %w", user, err)
		}
		r.WS = append(r.WS, ws)
	}
	r.Clients = []*WorkloadClient{{Session: r.WS[0].Session, Op: OpenClose("[bin]hello"), Requests: r.sc.Requests}}
	return nil
}

// fsOpts is the option list a paper file server runs with, at boot and
// when a restart re-creates it; fs1 says it serves fs1, whose members are
// read-only when it is replicated.
func (sc *Scenario) fsOpts(fs1 bool) []fileserver.Option {
	opts := []fileserver.Option{fileserver.WithReadAhead(sc.ReadAhead)}
	if sc.FileServerTeam > 1 {
		opts = append(opts, fileserver.WithTeam(sc.FileServerTeam))
	}
	if fs1 && sc.Replicas > 1 {
		opts = append(opts, fileserver.WithReadOnly())
	}
	return opts
}

// bootFileServers boots the fs1 service — one server, or Replicas
// read-only members, hosts first so they win GetPid's lowest-host
// preference over fs2 — then fs2, then seeds every fs1 volume with the
// same sequence. A replicated fs1's members must then hold equal images.
func (r *Rig) bootFileServers() error {
	vols := make([]*fileserver.FileServer, max(1, r.sc.Replicas))
	var err error
	for i := range vols {
		if vols[i], err = startStorage(r.Kernel.NewHost(fsMemberHost(i)), r.sc.fsOpts(true)...); err != nil {
			return err
		}
	}
	r.FS1Host, r.FS1 = vols[0].Proc().Host(), vols[0]
	r.FS2Host = r.Kernel.NewHost("fs2")
	if r.FS2, err = startStorage(r.FS2Host, r.sc.fsOpts(false)...); err != nil {
		return err
	}

	// FS2 holds the archive tree, reachable from FS1 through a
	// cross-server link (Figure 4's curved arrow).
	if err := r.FS2.WriteFile("/archive/2026/paper.mss", "system",
		[]byte("Uniform Access to Distributed Name Interpretation\n")); err != nil {
		return err
	}
	var binCtx core.ContextID
	for _, fs := range vols {
		if binCtx, err = r.seedFS1Volume(fs); err != nil {
			return fmt.Errorf("%s: %w", fs.Proc().Name(), err)
		}
	}
	r.BinCtx = core.ContextPair{Server: r.FS1.PID(), Ctx: binCtx}
	if r.FS1Members = vols; len(vols) > 1 {
		r.fs1Seed = vols[0].Image()
	}
	return r.CheckFS1()
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

// seedFS1Volume writes the standard fs1 contents into one volume, in a
// fixed order — i-node numbers are object ids on the wire — and returns
// the /bin context: at boot, and when a restart re-creates a replicated
// member.
func (r *Rig) seedFS1Volume(fs *fileserver.FileServer) (core.ContextID, error) {
	users := r.sc.Users
	archive, err := r.FS2.MkdirAll("/archive", "system") // a lookup: fs2 holds it
	if err != nil {
		return 0, err
	}
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
	return binCtx, fs.AddLink("/shared", "archive", core.ContextPair{Server: r.FS2.PID(), Ctx: archive})
}

func (r *Rig) bootServices() error {
	var err error
	r.ServicesHost = r.Kernel.NewHost("services")
	if r.Print, err = printserver.Start(r.ServicesHost); err != nil {
		return err
	}
	if r.Inet, err = inetserver.Start(r.ServicesHost); err != nil {
		return err
	}
	if r.Mail, err = mailserver.Start(r.ServicesHost); err != nil {
		return err
	}
	if r.Time, err = timeserver.Start(r.ServicesHost); err != nil {
		return err
	}
	if r.Pipe, err = pipeserver.Start(r.ServicesHost); err != nil {
		return err
	}
	for _, user := range r.sc.Users {
		if err := r.Mail.AddMailbox(user + "@v.stanford.edu"); err != nil {
			return err
		}
	}
	// A pre-existing foreign mailbox, with its externally-imposed name.
	if err := r.Mail.AddMailbox("cheriton@su-score.ARPA"); err != nil {
		return err
	}

	if r.sc.Baseline {
		r.NSHost = r.Kernel.NewHost("nameserver")
		if r.NS, err = nameserver.Start(r.NSHost); err != nil {
			return err
		}
	}
	return nil
}

func (r *Rig) bootWorkstation(user string) (*Workstation, error) {
	host := r.Kernel.NewHost("ws-" + user)
	ws := &Workstation{Host: host, User: user}

	var err error
	if ws.Prefix, err = prefix.Start(host, user, r.prefixOpts()...); err != nil {
		return nil, err
	}
	if ws.Term, err = termserver.Start(host); err != nil {
		return nil, err
	}
	if ws.Exec, err = execserver.Start(host, r.BinCtx); err != nil {
		return nil, err
	}

	// Seeding made /users/<user> on every fs1 volume, so this is a lookup.
	homeCtx, err := r.FS1.MkdirAll("/users/"+user, user)
	if err != nil {
		return nil, err
	}
	ws.HomeCtx = core.ContextPair{Server: r.BinCtx.Server, Ctx: homeCtx}

	// The standard per-user context prefixes (§6): some refer to file
	// servers, some to special contexts within them, some (those with a
	// svc) to generic services via dynamic (service, well-known-context)
	// bindings.
	type def struct {
		name string
		pair core.ContextPair
		svc  kernel.Service
		ctx  core.ContextID
	}
	// A context on a replicated fs1 is bound to (storage service, its
	// context id, the same on every member) instead of one member's pid:
	// GetPid re-resolves it per use, so the name reaches the lowest live
	// member (PROTOCOL.md §11). An unreplicated fs1 keeps its static pairs.
	onFS1 := func(name string, pair core.ContextPair) def {
		if r.fs1Seed != nil {
			return def{name: name, svc: kernel.ServiceStorage, ctx: pair.Ctx}
		}
		return def{name: name, pair: pair}
	}
	defs := []def{
		onFS1("storage", r.FS1.RootPair()),
		{name: "storage2", pair: r.FS2.RootPair()},
		onFS1("home", ws.HomeCtx),
		{name: "bin", svc: kernel.ServiceStorage, ctx: core.CtxStdPrograms},
		{name: "tty", pair: ws.Term.RootPair()},
		{name: "exec", pair: ws.Exec.RootPair()},
		{name: "print", svc: kernel.ServicePrinter, ctx: core.CtxDefault},
		{name: "tcp", svc: kernel.ServiceInternet, ctx: core.CtxDefault},
		{name: "mail", svc: kernel.ServiceMail, ctx: core.CtxDefault},
		{name: "time", svc: kernel.ServiceTime, ctx: core.CtxDefault},
		{name: "pipe", svc: kernel.ServicePipe, ctx: core.CtxDefault},
	}
	for _, d := range defs {
		var err error
		if d.svc != 0 {
			err = ws.Prefix.DefineDynamic(d.name, d.svc, d.ctx)
		} else {
			err = ws.Prefix.Define(d.name, d.pair)
		}
		if err != nil {
			return nil, fmt.Errorf("prefix %q: %w", d.name, err)
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
	s := r.session(proc, ws.Prefix.PID(), ws.HomeCtx, ws.User)
	// The home context is nameable as [home]; recording that lets the
	// recovery policy re-map the current context if its server dies.
	s.SetCurrentName("[home]")
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
