package client_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/rig"
	"repro/internal/vtime"
)

func bootResilient(t *testing.T) *rig.Rig {
	t.Helper()
	cfg := rig.DefaultConfig()
	policy := client.DefaultRetryPolicy()
	cfg.Retry = &policy
	r, err := rig.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// recovery reads the session's recovery counters from a snapshot of the
// registry: client_<name>_total, as its process counted them.
func recovery(s *client.Session, name string) (n uint64) {
	for _, c := range s.Proc().Kernel().Metrics().Snapshot().Counters {
		if c.Name == "client_"+name+"_total" && c.Labels == (metrics.Labels{Server: s.Proc().Name()}) {
			n += c.Value
		}
	}
	return n
}

// makeFS2Replica turns FS2 into a true storage replica for the standard
// programs context, so dynamic [bin] bindings can fail over to it.
func makeFS2Replica(t *testing.T, r *rig.Rig) {
	t.Helper()
	if err := r.FS2.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		t.Fatal(err)
	}
	data, err := r.WS[0].Session.ReadFile("[bin]hello")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.FS2.WriteFile("/bin/hello", "system", data); err != nil {
		t.Fatal(err)
	}
}

func TestRetryRecoversFromTransientOutage(t *testing.T) {
	// Total loss fails an attempt; the backoff observer (standing in for
	// the chaos engine) ends the outage, and the retry succeeds — one
	// failover, no error surfaced to the caller.
	r := bootResilient(t)
	s := r.WS[0].Session

	r.Net.SetDropRate(1.0)
	s.SetRetryObserver(func(_ vtime.Time) { r.Net.SetDropRate(0) })

	if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
		t.Fatalf("read across transient outage: %v", err)
	}
	retries := recovery(s, "retries")
	if retries == 0 || recovery(s, "failovers") == 0 {
		t.Fatalf("recovery not recorded: %d retries, %d failovers", retries, recovery(s, "failovers"))
	}
	if n := recovery(s, "op_failures"); n != 0 {
		t.Fatalf("no operation should have failed: %d did", n)
	}
	// Every retry charged one backoff, doubling from BaseDelay to MaxDelay.
	policy := client.DefaultRetryPolicy()
	var charged time.Duration
	for i, delay := uint64(0), policy.BaseDelay; i < retries; i, delay = i+1, min(2*delay, policy.MaxDelay) {
		charged += delay
	}
	if got := recovery(s, "backoff_ns"); got != uint64(charged) {
		t.Fatalf("client_backoff_ns_total = %d, want the %d ns of backoff charged", got, charged)
	}
}

func TestDynamicBindingFailsOverToReplica(t *testing.T) {
	// FS1 dies; the next use of the dynamic [bin] binding resolves to the
	// FS2 replica via GetPid — transparent failover, counted as a rebind
	// by the prefix server (§4.2).
	r := bootResilient(t)
	s := r.WS[0].Session
	makeFS2Replica(t, r)

	r.FS1Host.Crash()
	if _, err := s.ReadFile("[bin]hello"); err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	var rebinds uint64
	for _, c := range r.Metrics.Snapshot().Counters {
		if c.Name == "prefix_rebinds_total" {
			rebinds += c.Value
		}
	}
	if rebinds == 0 {
		t.Fatal("prefix server should count the rebind in prefix_rebinds_total")
	}
}

func TestResilienceRecoversNaiveCacheStaleness(t *testing.T) {
	// A8 shows the naive name cache fails forever on stale entries. The
	// recovery policy's between-attempt rebind drops the stale entry, so
	// with resilience enabled even the naive cache recovers.
	r := bootResilient(t)
	s := r.WS[0].Session
	makeFS2Replica(t, r)
	s.EnableNameCache(false)

	if _, err := s.ReadFile("[bin]hello"); err != nil {
		t.Fatal(err)
	}
	r.FS1Host.Crash()
	if _, err := s.ReadFile("[bin]hello"); err != nil {
		t.Fatalf("read with stale cache entry: %v", err)
	}
	if recovery(s, "rebinds") == 0 || recovery(s, "failovers") == 0 {
		t.Fatalf("rebind not recorded: %d rebinds, %d failovers", recovery(s, "rebinds"), recovery(s, "failovers"))
	}
	if cs := s.LeaseCacheStats(); cs.Stale == 0 {
		t.Fatalf("staleness should have been observed: %+v", cs)
	}
}

func TestRetryBudgetBoundedOnPermanentFailure(t *testing.T) {
	// A permanently-dead static binding exhausts the retry budget and
	// surfaces the transport error — bounded attempts, not forever.
	r := bootResilient(t)
	s := r.WS[0].Session
	policy := client.DefaultRetryPolicy()

	r.FS2Host.Crash()
	_, err := s.ReadFile("[storage2]/archive/2026/paper.mss")
	if !errors.Is(err, kernel.ErrNonexistentProcess) {
		t.Fatalf("err = %v", err)
	}
	if n := recovery(s, "retries"); n != uint64(policy.MaxAttempts-1) {
		t.Fatalf("retries = %d, want %d", n, policy.MaxAttempts-1)
	}
	if recovery(s, "op_failures") == 0 {
		t.Fatal("failure must be recorded")
	}
}

func TestNonRetryableErrorFailsFast(t *testing.T) {
	// Name-level failures are terminal: no retries, no backoff charge.
	r := bootResilient(t)
	s := r.WS[0].Session
	if _, err := s.ReadFile("[home]no-such-file.txt"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if recovery(s, "retries") != 0 || recovery(s, "backoff_ns") != 0 {
		t.Fatalf("not-found must not retry: %d retries, %d ns backoff", recovery(s, "retries"), recovery(s, "backoff_ns"))
	}
}

func TestSurveyPrefixesGracefulDegradation(t *testing.T) {
	// One crashed server must not hide the other prefixes: the prefix
	// table still lists every entry, and only names on the dead server
	// fail to resolve.
	r := bootResilient(t)
	s := r.WS[0].Session
	r.FS2Host.Crash()

	records, err := s.ListPrefixes()
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, d := range records {
		listed[d.Name] = true
	}
	if !listed["storage2"] || !listed["home"] {
		t.Fatalf("prefix table lost entries: %v", listed)
	}
	if _, err := s.List("[storage2]"); !client.Retryable(err) {
		t.Fatalf("listing the dead server: err = %v, want a transport failure", err)
	}
	if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
		t.Fatalf("a live server's name failed: %v", err)
	}
}
