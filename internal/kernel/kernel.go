package kernel

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Errors returned by kernel operations.
var (
	// ErrNonexistentProcess is returned when a message transaction names
	// a process that does not exist (never created, destroyed, or on a
	// crashed host).
	ErrNonexistentProcess = errors.New("kernel: nonexistent process")
	// ErrProcessDead is returned to a process's own operations after it
	// has been destroyed.
	ErrProcessDead = errors.New("kernel: process destroyed")
	// ErrServed is returned by Receive on a served process, whose
	// messages go to its Serve handler instead.
	ErrServed = errors.New("kernel: process is served")
	// ErrNotFound is returned by GetPid when no registration matches.
	ErrNotFound = errors.New("kernel: no process registered for service")
	// ErrNoPendingMessage is returned by Reply/Forward/Move operations
	// when there is no received-but-unreplied message from the given pid.
	ErrNoPendingMessage = errors.New("kernel: no pending message from process")
	// ErrHostDown is returned when operating on a crashed host.
	ErrHostDown = errors.New("kernel: host down")
	// ErrNoSuchGroup is returned for operations on unknown group ids.
	ErrNoSuchGroup = errors.New("kernel: no such group")
	// ErrNoGroupID is returned by CreateGroup when every group
	// identifier has been issued.
	ErrNoGroupID = errors.New("kernel: no group identifier left")
	// ErrUnreachable wraps network partition failures.
	ErrUnreachable = netsim.ErrUnreachable
)

// failedSendRetries is how many retransmission timeouts a sender burns
// before giving up on an unreachable or dead remote host.
const failedSendRetries = 3

// FailureClass maps a kernel-level error to the short classification
// string attached to failed trace spans. The mapping is checked most
// specific first: a wrapped ErrHostDown stays "host-down" even though
// the wrapping error chain may also carry ErrNonexistentProcess.
func FailureClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrHostDown):
		return "host-down"
	case errors.Is(err, netsim.ErrUnreachable):
		return "unreachable"
	case errors.Is(err, ErrNonexistentProcess):
		return "nonexistent-process"
	case errors.Is(err, ErrProcessDead):
		return "process-dead"
	case errors.Is(err, ErrNoPendingMessage):
		return "no-pending-message"
	case errors.Is(err, ErrNotFound):
		return "service-not-found"
	case errors.Is(err, ErrNoSuchGroup):
		return "no-such-group"
	default:
		return "error"
	}
}

// Kernel is one simulated V domain: the set of logical hosts running the
// distributed V kernel over one local network (§4.1).
type Kernel struct {
	net   *netsim.Network
	model *vtime.CostModel

	// tracer is the observer every IPC primitive reports spans to. A
	// nil tracer (the default) records nothing; tracing never advances
	// a virtual clock either way.
	tracer atomic.Pointer[trace.Tracer]

	// metrics caches the registry and the domain-wide instruments the
	// send path bumps, behind one atomic load — same zero-virtual-cost
	// contract as the tracer.
	metrics atomic.Pointer[kernelMetrics]

	// flight is the always-on flight recorder (PROTOCOL.md §15), under
	// the same observer contract: a nil recorder accepts every Record
	// as a no-op, and recording never advances a virtual clock.
	flight atomic.Pointer[flight.Recorder]

	// hosts is a copy-on-write snapshot indexed by host id: ids are dense
	// from 1 (slot 0 stays nil) and hosts are only ever added, so the send
	// path (findProcess on every message) indexes it without a lock or a
	// hash. Writers copy under mu and publish atomically.
	hosts atomic.Pointer[[]*Host]

	mu      sync.Mutex
	groups  []*[groupChunk]group // the group table, in chunks (groups.go)
	nextGrp uint32               // number of the last group created
}

// New creates a V domain over the given network.
func New(n *netsim.Network) *Kernel {
	k := &Kernel{
		net:   n,
		model: n.Model(),
	}
	k.hosts.Store(&[]*Host{nil})
	return k
}

// Network returns the underlying simulated network.
func (k *Kernel) Network() *netsim.Network { return k.net }

// SetTracer installs (or, with nil, removes) the domain's tracer.
func (k *Kernel) SetTracer(t *trace.Tracer) { k.tracer.Store(t) }

// Tracer returns the installed tracer; nil means tracing is off, and a
// nil *trace.Tracer accepts every recording call as a no-op.
func (k *Kernel) Tracer() *trace.Tracer { return k.tracer.Load() }

// SetFlight installs (or, with nil, removes) the domain's flight
// recorder.
func (k *Kernel) SetFlight(r *flight.Recorder) { k.flight.Store(r) }

// Flight returns the installed flight recorder; nil is a valid no-op
// recorder, so call sites record unconditionally.
func (k *Kernel) Flight() *flight.Recorder { return k.flight.Load() }

// kernelMetrics is the pre-resolved instrument set the IPC hot path
// records into, so a send costs one atomic pointer load plus a few
// atomic adds — no registry lookups.
type kernelMetrics struct {
	reg      *metrics.Registry
	sends    *metrics.Counter
	forwards *metrics.Counter
	replies  *metrics.Counter
	getpids  *metrics.Counter
	inflight *metrics.Gauge
}

// SetMetrics installs (or, with nil, removes) the domain's metrics
// registry. Recording charges zero virtual time.
func (k *Kernel) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		k.metrics.Store(nil)
		return
	}
	k.metrics.Store(&kernelMetrics{
		reg:      reg,
		sends:    reg.Counter("kernel_sends_total", metrics.Labels{}),
		forwards: reg.Counter("kernel_forwards_total", metrics.Labels{}),
		replies:  reg.Counter("kernel_replies_total", metrics.Labels{}),
		getpids:  reg.Counter("kernel_getpid_total", metrics.Labels{}),
		inflight: reg.Gauge("kernel_inflight", metrics.Labels{}),
	})
}

// Metrics returns the installed registry, or nil. A nil *Registry (and
// every instrument it hands out) accepts calls as no-ops.
func (k *Kernel) Metrics() *metrics.Registry {
	if km := k.metrics.Load(); km != nil {
		return km.reg
	}
	return nil
}

// Model returns the cost model in force.
func (k *Kernel) Model() *vtime.CostModel { return k.model }

// NewHost boots a new logical host into the domain.
func (k *Kernel) NewHost(name string) *Host {
	k.mu.Lock()
	defer k.mu.Unlock()
	old := *k.hosts.Load()
	id := netsim.HostID(len(old))
	h := &Host{
		id:     id,
		name:   name,
		kernel: k,
		// Local pids are allocated from a per-host starting point spread
		// across the 16-bit space, mimicking V's randomized allocation
		// while staying deterministic.
		nextLocal: uint16(id)*2657 + 100,
	}
	h.alive.Store(true)
	h.shard.Store(-1)
	h.procs.Store(&map[PID]*Process{})
	h.services.Store(&map[Service]svcEntry{})

	hosts := append(old[:len(old):len(old)], h)
	k.hosts.Store(&hosts)
	return h
}

// HostByID returns the host with the given id, or nil.
func (k *Kernel) HostByID(id netsim.HostID) *Host {
	if hosts := *k.hosts.Load(); int(id) < len(hosts) {
		return hosts[id]
	}
	return nil
}

// HostByName returns the host with the given configured name, or nil.
// Host names are unique in the rigs this simulation builds; if several
// hosts share a name the lowest id wins, deterministically.
func (k *Kernel) HostByName(name string) *Host {
	for _, h := range *k.hosts.Load() {
		if h != nil && h.name == name {
			return h
		}
	}
	return nil
}

// ProcessAlive reports whether pid currently names a live process (its
// host is up and the process exists). For a group pid it reports whether
// the group has at least one live member. It is the cheap liveness probe
// servers use before forwarding a transaction (§5.4): the local kernel
// can answer from its tables without a network exchange in simulation.
func (k *Kernel) ProcessAlive(pid PID) bool {
	if pid == NilPID {
		return false
	}
	if pid.IsGroup() {
		members, _ := k.GroupMembers(pid)
		return slices.ContainsFunc(members, func(m PID) bool { p, _ := k.findProcess(m); return p != nil })
	}
	p, _ := k.findProcess(pid)
	return p != nil
}

// findProcess resolves a pid to its live process. The second result
// reports whether the pid's host exists and is alive (so callers can
// distinguish "host down / partitioned" from "host up, process gone").
func (k *Kernel) findProcess(pid PID) (*Process, bool) {
	h := k.HostByID(pid.Host())
	if h == nil || !h.alive.Load() {
		return nil, false
	}
	return (*h.procs.Load())[pid], true
}

// svcEntry is one row of a host kernel's service table.
type svcEntry struct {
	pid PID
	vis Scope
}

// Host is one logical host: a set of processes sharing a kernel service
// table and a network station.
type Host struct {
	id     netsim.HostID
	name   string
	kernel *Kernel

	// procs and services are copy-on-write snapshots: the send path
	// resolves pids and service registrations lock-free; writers copy
	// under mu and publish atomically. alive flips atomically so readers
	// never queue behind a crashing host. procs is keyed by the whole pid,
	// whose 32 bits take the runtime's fast map path (16 bits do not).
	alive    atomic.Bool
	procs    atomic.Pointer[map[PID]*Process]
	services atomic.Pointer[map[Service]svcEntry]

	// shard labels the host with the execution-engine lane that owns its
	// local traffic under the sharded workload drivers (PROTOCOL.md §12).
	// Hosts start unsharded (-1): their traffic is never classified as
	// lane-confined.
	shard atomic.Int64

	mu        sync.Mutex // serializes writers of the tables above
	nextLocal uint16
}

// ID returns the host's logical-host identifier.
func (h *Host) ID() netsim.HostID { return h.id }

// Name returns the host's configured name.
func (h *Host) Name() string { return h.name }

// Kernel returns the domain this host belongs to.
func (h *Host) Kernel() *Kernel { return h.kernel }

// Alive reports whether the host is up.
func (h *Host) Alive() bool { return h.alive.Load() }

// SetShard labels the host with the execution-engine lane that owns its
// local traffic (negative clears the label). Sharded topologies label
// each shard's host so operation classifiers can prove co-residency
// instead of assuming it.
func (h *Host) SetShard(lane int) { h.shard.Store(int64(lane)) }

// Shard returns the host's engine-lane label, or -1 when unsharded.
func (h *Host) Shard() int { return int(h.shard.Load()) }

// HostOf returns the host a pid lives on, whether or not the process
// (or the host) is still alive — pids encode their host, so this is a
// pure table lookup. Returns nil for unknown hosts and group pids, whose
// host fields lie past every host id.
func (k *Kernel) HostOf(pid PID) *Host { return k.HostByID(pid.Host()) }

// storeProcs publishes a fresh copy of the process table with pid's slot
// set to p (or removed when p is nil). Caller holds h.mu.
func (h *Host) storeProcs(pid PID, p *Process) {
	procs := maps.Clone(*h.procs.Load())
	if p == nil {
		delete(procs, pid)
	} else {
		procs[pid] = p
	}
	h.procs.Store(&procs)
}

// NewProcess creates a process on this host. The caller drives it, hands
// it to a goroutine that loops on Receive (Spawn does both), or makes it
// a served process with Serve.
func (h *Host) NewProcess(name string) (*Process, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.alive.Load() {
		return nil, fmt.Errorf("%w: %s", ErrHostDown, h.name)
	}
	procs := *h.procs.Load()
	if len(procs) >= 0xFFFE {
		return nil, errors.New("kernel: host process table full")
	}
	// Find a free local pid, skipping 0 and in-use slots. Allocation
	// starts from a moving point to maximize time before reuse (§4.1).
	for {
		h.nextLocal++
		if h.nextLocal == 0 {
			h.nextLocal = 1
		}
		if _, used := procs[MakePID(h.id, h.nextLocal)]; !used {
			break
		}
	}
	p := &Process{
		pid:  MakePID(h.id, h.nextLocal),
		name: name,
		host: h,
		mbox: make(chan *envelope, mailboxDepth),
		done: make(chan struct{}),
	}
	h.storeProcs(p.pid, p)
	return p, nil
}

// Spawn creates a process and runs body in its own goroutine; the
// goroutine should loop on Receive until it returns ErrProcessDead. The
// returned process can be stopped with Destroy.
func (h *Host) Spawn(name string, body func(p *Process)) (*Process, error) {
	p, err := h.NewProcess(name)
	if err != nil {
		return nil, err
	}
	go body(p)
	return p, nil
}

// Crash takes the host down: every process on it is destroyed in pid
// order (pending senders get ErrNonexistentProcess, exit hooks run before
// Crash returns) and its kernel service table is cleared. The host keeps
// its logical-host id and can be Restarted.
func (h *Host) Crash() {
	h.mu.Lock()
	if !h.alive.Load() {
		h.mu.Unlock()
		return
	}
	h.alive.Store(false)
	old := *h.procs.Load()
	procs := make([]*Process, 0, len(old))
	for _, p := range old {
		procs = append(procs, p)
	}
	h.procs.Store(&map[PID]*Process{})
	h.services.Store(&map[Service]svcEntry{})
	h.mu.Unlock()
	sort.Slice(procs, func(i, j int) bool { return procs[i].pid < procs[j].pid })
	for _, p := range procs {
		p.terminate(true)
	}
}

// Restart brings a crashed host back up with empty process and service
// tables. Local pid allocation continues from where it left off, so
// re-created servers get different pids — the §4.2 rebinding scenario.
func (h *Host) Restart() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.alive.Store(true)
}

// ProcessByPID returns the live process with the given pid on this host.
func (h *Host) ProcessByPID(pid PID) (*Process, error) {
	if !h.alive.Load() {
		return nil, fmt.Errorf("%w: %s", ErrHostDown, h.name)
	}
	p := (*h.procs.Load())[pid]
	if p == nil {
		return nil, fmt.Errorf("%w: %v", ErrNonexistentProcess, pid)
	}
	return p, nil
}

// storeServices publishes a fresh copy of the service table produced by
// mutate. Caller holds h.mu.
func (h *Host) storeServices(mutate func(map[Service]svcEntry)) {
	services := maps.Clone(*h.services.Load())
	mutate(services)
	h.services.Store(&services)
}

// SetPid registers pid as providing service with the given visibility in
// this host's kernel table (§4.2).
func (h *Host) SetPid(service Service, pid PID, vis Scope) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.alive.Load() {
		return fmt.Errorf("%w: %s", ErrHostDown, h.name)
	}
	h.storeServices(func(m map[Service]svcEntry) {
		m[service] = svcEntry{pid: pid, vis: vis}
	})
	return nil
}

// lookupService consults this host's kernel table. remoteQuery selects
// whether the query arrived by broadcast from another host.
func (h *Host) lookupService(service Service, remoteQuery bool) (PID, bool) {
	hidden := ScopeRemote // from a local query
	if remoteQuery {
		hidden = ScopeLocal
	}
	e, ok := (*h.services.Load())[service]
	if !ok || e.vis == hidden || !h.alive.Load() {
		return NilPID, false
	}
	return e.pid, true
}

// deregisterPid removes all service registrations pointing at pid, used
// when a process is destroyed.
func (h *Host) deregisterPid(pid PID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.storeServices(func(m map[Service]svcEntry) {
		maps.DeleteFunc(m, func(_ Service, e svcEntry) bool { return e.pid == pid })
	})
}
