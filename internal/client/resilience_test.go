package client_test

import (
	"errors"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/kernel"
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
	st := s.ResilienceStats()
	if st.Retries == 0 || st.Failovers == 0 {
		t.Fatalf("recovery not recorded: %+v", st)
	}
	if st.OpsFailed != 0 {
		t.Fatalf("no operation should have failed: %+v", st)
	}
	if st.Downtime == 0 {
		t.Fatalf("backoff must be charged as downtime: %+v", st)
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
	if st := r.WS[0].Prefix.Stats(); st.Rebinds == 0 {
		t.Fatalf("prefix server should count the rebind: %+v", st)
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
	st := s.ResilienceStats()
	if st.Rebinds == 0 || st.Failovers == 0 {
		t.Fatalf("rebind not recorded: %+v", st)
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
	st := s.ResilienceStats()
	if st.Retries != policy.MaxAttempts-1 {
		t.Fatalf("retries = %d, want %d", st.Retries, policy.MaxAttempts-1)
	}
	if st.OpsFailed == 0 {
		t.Fatalf("failure must be recorded: %+v", st)
	}
}

func TestNonRetryableErrorFailsFast(t *testing.T) {
	// Name-level failures are terminal: no retries, no backoff charge.
	r := bootResilient(t)
	s := r.WS[0].Session
	if _, err := s.ReadFile("[home]no-such-file.txt"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	st := s.ResilienceStats()
	if st.Retries != 0 || st.Downtime != 0 {
		t.Fatalf("not-found must not retry: %+v", st)
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
