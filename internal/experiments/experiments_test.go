package experiments

import (
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func runExp(t *testing.T, id string) Result {
	t.Helper()
	res, err := Run(id)
	if err != nil {
		t.Fatalf("experiment %s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result id = %q", res.ID)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("experiment %s produced no rows", id)
	}
	return res
}

// parseMs extracts the float from a "12.34 ms" measurement.
func parseMs(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, " ms"), 64)
	if err != nil {
		t.Fatalf("cannot parse measurement %q: %v", s, err)
	}
	return v
}

// TestIDsCanonicalOrder pins the registry's order, which is the section
// order of the byte-pinned vbench_output.txt: a new experiment appends.
func TestIDsCanonicalOrder(t *testing.T) {
	want := "e1 e2 e3 e5 t1 a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 a11 a12 a14 a15 a16 a17 a18 a19"
	if got := strings.Join(IDs(), " "); got != want {
		t.Fatalf("order = %s\nwant    %s", got, want)
	}
}

// TestRegistryShape: an experiment is a table row and a script — every
// row carries what vbench prints and one run function; only the rows with
// an export return a document, and those are exactly the goldens the
// Makefile regenerates, in its order.
func TestRegistryShape(t *testing.T) {
	for _, e := range registry {
		if e.id == "" || e.title == "" || e.source == "" || e.run == nil {
			t.Errorf("registry row %+v is incomplete", e)
		}
	}

	// A document-less id is refused without being run.
	prev := registry[0].run
	defer func() { registry[0].run = prev }()
	registry[0].run = func() (Result, error) {
		t.Error("DocJSON ran e1, which returns no document")
		return Result{}, nil
	}
	if _, err := DocJSON("e1"); err == nil {
		t.Error("DocJSON(e1) must fail: e1 returns no document")
	}

	var flags []string
	for _, e := range Exports() {
		flags = append(flags, e.Flag)
	}
	got := strings.Join(flags, " ")
	if want := "metrics replica shard cache zipf obs"; got != want {
		t.Errorf("export flags = %q, want %q", got, want)
	}
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mk), "\nGOLDEN_DOCS = "+got+"\n") {
		t.Errorf("Makefile's GOLDEN_DOCS is not %q", got)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("zz"); err == nil {
		t.Fatal("unknown id must fail")
	}
}

func TestE1Shape(t *testing.T) {
	res := runExp(t, "e1")
	remote := parseMs(t, res.Rows[0].Measured)
	remote10 := parseMs(t, res.Rows[1].Measured)
	local := parseMs(t, res.Rows[2].Measured)
	if remote10 >= remote {
		t.Fatalf("10 Mbit transaction (%v) must be faster than 3 Mbit (%v)", remote10, remote)
	}
	// The headline calibration: 2.56 ms ±2%.
	if remote < 2.51 || remote > 2.61 {
		t.Fatalf("remote transaction = %v ms, want ≈2.56", remote)
	}
	if local >= remote {
		t.Fatalf("local %v must beat remote %v", local, remote)
	}
}

func TestE2Shape(t *testing.T) {
	res := runExp(t, "e2")
	load := parseMs(t, res.Rows[0].Measured)
	// Paper: 338 ms; allow ±10%.
	if load < 304 || load > 372 {
		t.Fatalf("64 KB load = %v ms, want ≈338", load)
	}
}

func TestE3Shape(t *testing.T) {
	res := runExp(t, "e3")
	withRA := parseMs(t, res.Rows[0].Measured)
	withoutRA := parseMs(t, res.Rows[1].Measured)
	// The disk rate bounds below; the paper's 17.13 lies between our two
	// modes.
	if withRA < 15.0 || withRA > 17.2 {
		t.Fatalf("read-ahead per page = %v ms", withRA)
	}
	if withoutRA <= withRA {
		t.Fatal("read-ahead must help")
	}
	if withRA > 17.13 || withoutRA < 17.13 {
		t.Fatalf("paper's 17.13 ms should lie between %v and %v", withRA, withoutRA)
	}
}

func TestT1Shape(t *testing.T) {
	res := runExp(t, "t1")
	vals := make(map[string]float64, len(res.Rows))
	for _, r := range res.Rows {
		vals[r.Label] = parseMs(t, r.Measured)
	}
	cl := vals["current context, server local"]
	cr := vals["current context, server remote"]
	pl := vals["via prefix, server local"]
	pr := vals["via prefix, server remote"]
	if !(cl < cr && cr < pr && cl < pl) {
		t.Fatalf("ordering violated: %v", vals)
	}
	dLocal := vals["prefix overhead (local column)"]
	dRemote := vals["prefix overhead (remote column)"]
	diff := dLocal - dRemote
	if diff < 0 {
		diff = -diff
	}
	// The paper's key invariant: the overhead is identical within
	// experimental error (they saw 3.94 vs 3.99).
	if diff > 0.15 {
		t.Fatalf("prefix overheads differ: %v vs %v", dLocal, dRemote)
	}
	if dLocal < 3.0 || dLocal > 4.8 {
		t.Fatalf("prefix overhead = %v ms, paper ≈3.94", dLocal)
	}
	// Quadrants within ±35% of the paper's values.
	for label, paper := range map[string]float64{
		"current context, server local":  1.21,
		"current context, server remote": 3.70,
		"via prefix, server local":       5.14,
		"via prefix, server remote":      7.69,
	} {
		got := vals[label]
		if got < paper*0.65 || got > paper*1.35 {
			t.Errorf("%s = %v ms, paper %v (±35%%)", label, got, paper)
		}
	}
}

func TestE5Shape(t *testing.T) {
	res := runExp(t, "e5")
	if !strings.Contains(res.Rows[0].Measured, "B") {
		t.Fatalf("table size row = %+v", res.Rows[0])
	}
}

func TestA1Shape(t *testing.T) {
	res := runExp(t, "a1")
	// Pairs of rows per N: directory read must beat enumerate+query, and
	// the advantage must grow with N.
	var prevRatio float64
	for i := 0; i+1 < len(res.Rows); i += 2 {
		dir := parseMs(t, res.Rows[i].Measured)
		enum := parseMs(t, res.Rows[i+1].Measured)
		if enum <= dir {
			t.Fatalf("enumerate (%v) must cost more than directory read (%v)", enum, dir)
		}
		ratio := enum / dir
		if ratio < prevRatio {
			t.Fatalf("advantage should grow with N: %v then %v", prevRatio, ratio)
		}
		prevRatio = ratio
	}
}

func TestA2Shape(t *testing.T) {
	res := runExp(t, "a2")
	dist := parseMs(t, res.Rows[0].Measured)
	cent := parseMs(t, res.Rows[1].Measured)
	if cent <= dist {
		t.Fatalf("centralized (%v) must cost more than distributed (%v)", cent, dist)
	}
}

func TestA3Shape(t *testing.T) {
	res := runExp(t, "a3")
	if !strings.HasPrefix(res.Rows[0].Measured, "7 ") {
		t.Fatalf("centralized dangling = %q, want 7", res.Rows[0].Measured)
	}
	if !strings.HasPrefix(res.Rows[1].Measured, "0 ") {
		t.Fatalf("V dangling = %q, want 0", res.Rows[1].Measured)
	}
}

func TestA4Shape(t *testing.T) {
	res := runExp(t, "a4")
	if res.Rows[0].Measured != "0/10" {
		t.Fatalf("centralized availability = %q", res.Rows[0].Measured)
	}
	if res.Rows[1].Measured != "10/10" {
		t.Fatalf("V availability = %q", res.Rows[1].Measured)
	}
}

func TestA5Shape(t *testing.T) {
	res := runExp(t, "a5")
	if res.Rows[0].Measured != "recovers" {
		t.Fatalf("dynamic binding = %q", res.Rows[0].Measured)
	}
	if !strings.HasPrefix(res.Rows[1].Measured, "dangles") {
		t.Fatalf("static binding = %q", res.Rows[1].Measured)
	}
}

func TestA6Shape(t *testing.T) {
	res := runExp(t, "a6")
	viaPrefix := parseMs(t, res.Rows[0].Measured)
	viaGroup := parseMs(t, res.Rows[1].Measured)
	if viaGroup >= viaPrefix {
		t.Fatalf("multicast (%v) should beat prefix indirection (%v)", viaGroup, viaPrefix)
	}
	if res.Rows[2].Measured != "succeeds" {
		t.Fatalf("replica failover = %q", res.Rows[2].Measured)
	}
}

// TestA6IndependentOfGOMAXPROCS: A6's group members are served, so the
// first reply is the first member's in pid order, not the run queue's —
// the row needs no GOMAXPROCS pin (ROADMAP 1(e)).
func TestA6IndependentOfGOMAXPROCS(t *testing.T) {
	rows := func(procs int) []Row {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := a6()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if p1, p4 := rows(1), rows(4); !reflect.DeepEqual(p1, p4) {
		t.Fatalf("a6 rows differ:\nP=1 %+v\nP=4 %+v", p1, p4)
	}
}

func TestPrintRendersAllRows(t *testing.T) {
	res := Result{
		ID: "t1", Title: "demo", Source: "§6",
		Rows: []Row{{Label: "a", Paper: "1 ms", Measured: "2 ms", Note: "n"}},
	}
	var sb strings.Builder
	Print(&sb, res)
	out := sb.String()
	for _, want := range []string{"T1", "demo", "§6", "a", "1 ms", "2 ms", "n", "paper", "measured"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestA7Shape(t *testing.T) {
	res := runExp(t, "a7")
	full := parseMs(t, res.Rows[0].Measured)
	filtered := parseMs(t, res.Rows[1].Measured)
	if filtered >= full {
		t.Fatalf("pattern read (%v) must beat the full read (%v)", filtered, full)
	}
	if !strings.HasSuffix(res.Rows[2].Measured, "%") {
		t.Fatalf("savings row = %q", res.Rows[2].Measured)
	}
}

func TestA8Shape(t *testing.T) {
	res := runExp(t, "a8")
	plain := parseMs(t, res.Rows[0].Measured)
	cached := parseMs(t, res.Rows[1].Measured)
	if cached >= plain {
		t.Fatalf("cached (%v) must beat uncached (%v) on reuse", cached, plain)
	}
	if res.Rows[2].Measured != "0/20 opens fail" {
		t.Fatalf("no-cache availability = %q", res.Rows[2].Measured)
	}
	if res.Rows[3].Measured != "20/20 opens fail" {
		t.Fatalf("naive cache inconsistency = %q", res.Rows[3].Measured)
	}
	if !strings.HasPrefix(res.Rows[4].Measured, "0/20 fail") {
		t.Fatalf("retry cache = %q", res.Rows[4].Measured)
	}
}

func TestA9Shape(t *testing.T) {
	res := runExp(t, "a9")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Per-load latency grows with N; goodput plateaus (4-client aggregate
	// within 2x of the single-client rate rather than scaling 4x).
	var times []float64
	for _, r := range res.Rows {
		times = append(times, parseMs(t, r.Measured))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("saturation: per-load time must grow with N: %v", times)
		}
	}
	if times[3] < 4*times[0] {
		t.Fatalf("8 concurrent loads (%v ms) should be at least ~4x one load (%v ms)", times[3], times[0])
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Experiments are pure virtual time: two runs must produce
	// byte-identical rows. A6 and A9 are here because they once were not
	// (their rows depended on the Go scheduler).
	for _, id := range []string{"e1", "e3", "t1", "a2", "a6", "a9"} {
		first := runExp(t, id)
		second := runExp(t, id)
		if len(first.Rows) != len(second.Rows) {
			t.Fatalf("%s: row counts differ", id)
		}
		for i := range first.Rows {
			if first.Rows[i] != second.Rows[i] {
				t.Fatalf("%s row %d differs:\n%+v\n%+v", id, i, first.Rows[i], second.Rows[i])
			}
		}
	}
}

func TestScorecardAllReproduced(t *testing.T) {
	checks, err := Scorecard()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 9 {
		t.Fatalf("scorecard has %d checks", len(checks))
	}
	for _, c := range checks {
		if !c.Upholds {
			t.Errorf("claim %q deviates: paper %s, measured %s", c.Claim, c.Paper, c.Got)
		}
	}
	var sb strings.Builder
	PrintScorecard(&sb, checks)
	if !strings.Contains(sb.String(), "REPRODUCED") {
		t.Fatal("rendering broken")
	}
}

// parseFracs parses an A10 measured cell like "0.66 / 0.39 / 0.24 ok"
// into the three per-rate success fractions.
func parseFracs(t *testing.T, s string) [3]float64 {
	t.Helper()
	parts := strings.Split(strings.TrimSuffix(s, " ok"), " / ")
	if len(parts) != 3 {
		t.Fatalf("cannot parse fractions %q", s)
	}
	var out [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			t.Fatalf("cannot parse fractions %q: %v", s, err)
		}
		out[i] = v
	}
	return out
}

func TestA10Shape(t *testing.T) {
	res := runExp(t, "a10")
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Rows 0-2 static, 3-5 dynamic; index 1 is the default fault rate.
	staticNone := parseFracs(t, res.Rows[0].Measured)
	dynRetry := parseFracs(t, res.Rows[5].Measured)
	if dynRetry[1] < 0.9 {
		t.Fatalf("dynamic + invalidate-and-retry must stay >= 0.9 at the default fault rate, got %v", dynRetry[1])
	}
	if staticNone[1] > dynRetry[1]-0.2 {
		t.Fatalf("static binding should degrade measurably: static %v vs dynamic %v", staticNone[1], dynRetry[1])
	}
	// More faults must not improve static availability.
	if staticNone[2] > staticNone[0] {
		t.Fatalf("static success should fall with fault rate: %v", staticNone)
	}
	// The recovery-work row exists and reflects engaged machinery.
	if !strings.Contains(res.Rows[6].Measured, "rebinds") {
		t.Fatalf("recovery row = %q", res.Rows[6].Measured)
	}
}

func TestA10Deterministic(t *testing.T) {
	first, second := runExp(t, "a10"), runExp(t, "a10")
	if len(first.Rows) != len(second.Rows) {
		t.Fatalf("row counts differ")
	}
	for i := range first.Rows {
		if first.Rows[i] != second.Rows[i] {
			t.Fatalf("row %d differs:\n%+v\n%+v", i, first.Rows[i], second.Rows[i])
		}
	}
}
