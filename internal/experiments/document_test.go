package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rig"
)

// leaf is one v1 value being looked up in the committed new document.
type leaf struct {
	doc    Result   // the new document
	raw    any      // and as decoded JSON
	leg    Leg      // the leg the rule names
	rawLeg any      // and as decoded JSON
	groups []string // the rule's capture groups after the leg index
	v1     any
}

// keep maps the v1 leaves its pattern matches to the new document. In
// the pattern # is the v1 index (added to leg to name the new leg), * any
// other index, ** any rest of a path; the capture groups after # fill the
// %s of a path.
type keep struct {
	v1   string
	leg  int
	want func(l leaf) any
}

// at reads a path under the leg, or, with a leading "/", under the
// document.
func at(path string) func(l leaf) any {
	return func(l leaf) any {
		root, p := l.rawLeg, path
		if strings.HasPrefix(p, "/") {
			root, p = l.raw, p[1:]
		}
		if n := strings.Count(p, "%s"); n > 0 {
			args := make([]any, n)
			for i := range args {
				args[i] = l.groups[i]
			}
			p = fmt.Sprintf(p, args...)
		}
		v := root
		for _, k := range strings.Split(p, ".") {
			switch node := v.(type) {
			case map[string]any:
				v = node[k]
			case []any:
				i, err := strconv.Atoi(k)
				if err != nil || i >= len(node) {
					return nil
				}
				v = node[i]
			default:
				return nil
			}
		}
		return v
	}
}

// us reads a nanosecond value as the microseconds v1 truncated it to.
func us(path string) func(l leaf) any {
	return func(l leaf) any {
		ns, ok := at(path)(l).(float64)
		if !ok {
			return nil
		}
		return float64(int64(ns) / 1000)
	}
}

// team reads FileServerTeam, where 0 is v1's team of 1.
func team(l leaf) any {
	if at("scenario.FileServerTeam")(l) == 0.0 {
		return 1.0
	}
	return at("scenario.FileServerTeam")(l)
}

// oracle is a boolean the collector enforces: the new document exists
// only if it held, so v1 must have recorded true.
func oracle(leaf) any { return true }

// contains is v1 prose that the new string at path contains.
func contains(path string) func(l leaf) any {
	return func(l leaf) any {
		if s, ok := at(path)(l).(string); ok && strings.Contains(s, l.v1.(string)) {
			return l.v1
		}
		return nil
	}
}

// prose is a v1 description, rewritten as the registry's title and
// source: both must be present.
func prose(l leaf) any {
	if l.doc.Title == "" || l.doc.Source == "" {
		return nil
	}
	return l.v1
}

// f states a formula over the typed leg.
func f(formula func(Leg) float64) func(l leaf) any {
	return func(l leaf) any { return formula(l.leg) }
}

func requestsOf(g Leg) float64 { return float64(g.requests()) }

// clientHitRate is hits over every lookup: hits, misses and renewals.
func clientHitRate(g Leg) float64 { return hitRate(g.Evidence.Client) }

// keepEvery is the v1 → new map of each document.
var keepEvery = map[string][]keep{
	"metrics": {
		{`tool`, 0, at("/tool")},
		{`description`, 0, prose},
		{`legs.#.label`, 0, at("label")},
		{`legs.#.(histograms|counters|requests_per_tick|failures_per_tick|health).**`, 0, at("series.%s.%s")},
	},
	"replica": {
		{`tool`, 0, at("/tool")},
		{`description`, 0, prose},
		{`ops_total`, 0, at("scenario.Requests")},
		{`ops_failed`, 0, f(func(g Leg) float64 { return float64(g.Scenario.Requests) - g.Reads["completed"] })},
		// Availability is 1 − downtime/horizon, both in microseconds.
		{`availability`, 0, f(func(g Leg) float64 {
			return 1 - float64(g.ns("downtime_ns").Microseconds())/float64(g.Series.Health.HorizonUS)
		})},
		{`host_availability`, 0, at("series.health.servers.0.availability")},
		{`downtime_us`, 0, us("reads.downtime_ns")},
		{`horizon_us`, 0, at("series.health.horizon_us")},
		{`failover_p50_us`, 0, f(func(g Leg) float64 { fo := failoversUS(g); return fo[len(fo)/2] })},
		{`failover_p99_us`, 0, f(func(g Leg) float64 { fo := failoversUS(g); return fo[len(fo)-1] })},
		{`failovers_us.*`, 0, us("reads.failover%s_ns")},
		{`events.*`, 0, at("series.events.%s")},
		{`(counters|health).**`, 0, at("series.%s.%s")},
	},
	"shard": append([]keep{
		{`tool`, 0, at("/tool")},
		{`description`, 0, prose},
		{`engine`, 0, prose},
		{`lookahead_ns`, 0, at("reads.lookahead_ns")},
		{`runs.#.team`, 1, team},
		{`runs.#.flush_every`, 1, at("scenario.FlushEvery")},
		{`runs.#.confined_ops`, 1, at("evidence.Client.Hits")},
		{`runs.#.shared_ops`, 1, at("evidence.Client.Misses")},
		{`runs.#.per_lane_ops.*`, 1, at("reads.lane%s_ops")},
	}, closedLoop("runs", 1)...),
	"cache": append(closedLoop("sweep", 0),
		keep{`tool`, 0, at("/tool")},
		keep{`description`, 0, prose},
		keep{`sweep.#.lease_us`, 0, us("scenario.Lease")},
		keep{`sweep.#.cache_tier`, 0, at("scenario.CacheTier")},
		keep{`sweep.#.client_(hits|misses|renewals)`, 0, clientStat},
		keep{`sweep.#.client_hit_rate`, 0, f(clientHitRate)},
		keep{`sweep.#.tier_(hits|misses|forwards)`, 0, tierStat},
		keep{`sweep.#.tier_hit_rate`, 0, f(func(g Leg) float64 {
			return float64(g.Evidence.Tier.Hits) / float64(g.Evidence.Tier.Hits+g.Evidence.Tier.Misses)
		})},
		keep{`sweep.#.prefix_grants`, 0, at("evidence.Prefix.Grants")},
		keep{`chaos.#.kind`, 6, contains("label")},
		keep{`chaos.#.lease_us`, 6, us("scenario.Lease")},
		keep{`chaos.#.requests_per_client`, 6, at("scenario.Requests")},
		keep{`chaos.#.schedule.*`, 6, at("evidence.ChaosLog.%s")},
		keep{`chaos.#.total_requests`, 6, f(requestsOf)},
		keep{`chaos.#.completed`, 6, at("evidence.Completed")},
		keep{`chaos.#.errors`, 6, at("evidence.Errors")},
		keep{`chaos.#.invalidations`, 6, at("evidence.Client.Invalidations")},
		keep{`chaos.#.stale_windows`, 6, at("evidence.StaleWindows")},
		keep{`chaos.#.widest_stale_us`, 6, us("evidence.WidestStale")},
		keep{`chaos.#.(trace_clean|bound_held)`, 6, oracle},
	),
	"zipf": append(append(openLoop("sweep", 4), openLoop("skew_sweep", 12)...),
		keep{`tool`, 0, at("/tool")},
		keep{`description`, 0, prose},
		keep{`index.#.(population|radix_steps|flat_compares|index_bytes)`, 0, at("reads.%s")},
		keep{`index.#.speedup`, 0, f(func(g Leg) float64 { return g.Reads["flat_compares"] / g.Reads["radix_steps"] })},
		keep{`trace.population`, 15, at("scenario.Population")},
		keep{`trace.lease_us`, 15, us("scenario.Lease")},
		keep{`trace.schedule.*`, 15, at("evidence.ChaosLog.%s")},
		keep{`trace.total_requests`, 15, f(requestsOf)},
		keep{`trace.completed`, 15, at("evidence.Completed")},
		keep{`trace.errors`, 15, at("evidence.Errors")},
		keep{`trace.invalidations`, 15, at("evidence.Client.Invalidations")},
		keep{`trace.stale_windows`, 15, at("evidence.StaleWindows")},
		keep{`trace.trace_clean`, 15, oracle},
	),
	"obs": {
		{`tool`, 0, at("/tool")},
		{`description`, 0, prose},
		{`topk.(population|draws|k|skew|guaranteed|recalled|max_overestimate|hottest_est|hottest_true)`, 0, at("reads.%s")},
		{`topk.hottest_name`, 0, contains("/rows.0.note")},
		{`topk.within_bound`, 0, oracle},
		{`rates.cadence_us`, 1, us("reads.cadence_ns")},
		{`rates.events`, 1, at("reads.events")},
		// The analytic rate of one event per cadence, in mHz.
		{`rates.want_mhz`, 1, f(func(g Leg) float64 { return float64(int64(1000 / g.ns("cadence_ns").Seconds())) })},
		{`rates.got_mhz`, 1, at("reads.rate_mhz")},
		{`rates.exact`, 1, oracle},
		// Full and sampled decompositions agree, so one leg holds both.
		{`sampling.(?:full|sampled).(\w+)_us`, 2, us("reads.%s_ns")},
		{`sampling.(agrees|trace_clean|hottest_in_topk)`, 2, oracle},
		{`sampling.population`, 3, at("scenario.Population")},
		{`sampling.head_every`, 3, at("scenario.TraceSample.HeadEvery")},
		{`sampling.total_ops`, 3, f(requestsOf)},
		{`sampling.retained_spans`, 3, at("evidence.Spans")},
		{`sampling.(roots_seen|roots_retained|flight_events|flight_resolutions|flight_redefines|flight_dropped)`, 3, at("reads.%s")},
		{`auto_tune.#.policy`, 4, contains("label")},
		{`auto_tune.#.lease_us`, 4, us("scenario.Lease")},
		{`auto_tune.#.cap_us`, 4, us("scenario.AutoTuneMax")},
		{`auto_tune.#.requests`, 4, at("scenario.Requests")},
		{`auto_tune.#.errors`, 4, at("evidence.Errors")},
		{`auto_tune.#.(hits|misses|renewals|invalidations)`, 4, clientStat},
		{`auto_tune.#.hit_rate`, 4, f(clientHitRate)},
		{`auto_tune.#.stale_windows`, 4, at("evidence.StaleWindows")},
		{`auto_tune.#.widest_stale_us`, 4, us("evidence.WidestStale")},
		{`auto_tune.#.bound_us`, 4, us("evidence.Bound")},
		{`auto_tune.#.(bound_held|trace_clean)`, 4, oracle},
		{`auto_tune.#.tuned_shard(\d)_us`, 4, us("reads.tuned_shard%s_ns")},
		{`auto_tune.#.flight_redefines`, 4, at("reads.flight_redefines")},
		// Tuned (legs 7–8) against fixed (legs 4–6) on the frontier.
		{`frontier_beats`, 0, func(l leaf) any {
			legs := l.doc.Legs
			return float64(frontierBeats(legs[7:], legs[4:7]))
		}},
	},
}

// closedLoop maps the leaves every closed-loop sweep point kept.
func closedLoop(section string, leg int) []keep {
	return []keep{
		{section + `.#.shards`, leg, at("scenario.Shards")},
		{section + `.#.clients_per_shard`, leg, at("scenario.ClientsPerShard")},
		{section + `.#.requests_per_client`, leg, at("scenario.Requests")},
		{section + `.#.seed`, leg, at("scenario.Seed")},
		{section + `.#.total_requests`, leg, f(requestsOf)},
		{section + `.#.errors`, leg, at("evidence.Errors")},
		{section + `.#.makespan_us`, leg, us("reads.makespan_ns")},
		{section + `.#.throughput_rps`, leg, f(Leg.throughput)},
		{section + `.#.equal_to_sequential`, leg, at("evidence.EqualToSequential")},
	}
}

// openLoop maps the leaves every open-loop Zipf point kept.
func openLoop(section string, leg int) []keep {
	return []keep{
		{section + `.#.population`, leg, at("scenario.Population")},
		{section + `.#.skew`, leg, at("scenario.Skew")},
		{section + `.#.cache_tier`, leg, at("scenario.CacheTier")},
		{section + `.#.shards`, leg, at("scenario.Shards")},
		{section + `.#.clients_per_shard`, leg, at("scenario.ClientsPerShard")},
		{section + `.#.arrivals_per_client`, leg, at("scenario.Requests")},
		{section + `.#.interarrival_us`, leg, us("scenario.Interarrival")},
		{section + `.#.lease_us`, leg, us("scenario.Lease")},
		{section + `.#.seed`, leg, at("scenario.Seed")},
		{section + `.#.total_requests`, leg, f(requestsOf)},
		{section + `.#.errors`, leg, at("evidence.Errors")},
		{section + `.#.open_loop_span_us`, leg, us("reads.open_loop_span_ns")},
		{section + `.#.throughput_rps`, leg, f(Leg.openLoopThroughput)},
		{section + `.#.(p50|p99)_us`, leg, us("reads.%s_ns")},
		{section + `.#.client_(hits|misses|renewals)`, leg, clientStat},
		{section + `.#.client_hit_rate`, leg, f(clientHitRate)},
		{section + `.#.tier_(hits|misses)`, leg, tierStat},
		{section + `.#.prefix_grants`, leg, at("evidence.Prefix.Grants")},
		{section + `.#.table_bytes`, leg, at("reads.table_bytes")},
		{section + `.#.equivalence_checked`, leg, at("scenario.Sequential")},
		{section + `.#.equal_to_sequential`, leg, at("evidence.EqualToSequential")},
	}
}

// clientStat and tierStat read the lease counter the group names.
func clientStat(l leaf) any {
	return at("evidence.Client." + strings.ToUpper(l.groups[0][:1]) + l.groups[0][1:])(l)
}

func tierStat(l leaf) any {
	return at("evidence.Tier." + strings.ToUpper(l.groups[0][:1]) + l.groups[0][1:])(l)
}

// failoversUS is a replicated leg's failover latencies in v1's truncated
// microseconds, ascending.
func failoversUS(g Leg) []float64 {
	var out []float64
	for name := range g.Reads {
		if strings.HasPrefix(name, "failover") {
			out = append(out, float64(g.ns(name).Microseconds()))
		}
	}
	slices.Sort(out)
	return out
}

// v1Leaves walks a decoded v1 document's leaves in path order.
func v1Leaves(path string, v any, visit func(path string, v any)) {
	switch node := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(node))
		for k := range node {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			v1Leaves(strings.TrimPrefix(path+"."+k, "."), node[k], visit)
		}
	case []any:
		for i, x := range node {
			v1Leaves(path+"."+strconv.Itoa(i), x, visit)
		}
	default:
		visit(path, v)
	}
}

// move is a v1 leaf a later change moved on purpose: its v1 value and the
// value its rule gives now.
type move struct{ v1, now any }

// moved names, per document, every v1 leaf that no longer maps to its
// own value. A15's replicated fs1 is read-only members found by GetPid,
// with no election (EXPERIMENTS.md A15): a failover is the first
// operation after a crash — one dead-host detection (a second
// nonexistent-process send failure) plus one re-resolution — and the run
// ends 1.2 s sooner, so the fs1 host's availability is A14's.
var moved = map[string]map[string]move{
	"replica": {
		`horizon_us`:                         {4227798.0, 3006017.0},
		`health.horizon_us`:                  {4227798.0, 3006017.0},
		`host_availability`:                  {0.7634702777981035, 0.6673339105666607},
		`health.servers.0.availability`:      {0.7634702777981035, 0.6673339105666607},
		`health.servers.0.error_budget_left`: {-1.365297222018965, -2.3266608943333944},
		`failovers_us.0`:                     {13290.0, 314972.0},
		`failovers_us.1`:                     {20176.0, 314972.0},
		`failover_p50_us`:                    {20176.0, 314972.0},
		`failover_p99_us`:                    {20176.0, 314972.0},
		`counters.3.value`:                   {1.0, 2.0},
	},
}

// removed names, per document, the v1 entries whose subject is gone, by
// path and the host the entry reported ("" for an entry that names
// none): every leaf under one maps to nothing now. The prefix groups'
// members left A15's health report with the groups; the election took
// the group's event log, the members' role epochs and the rows of the
// members that never went down with it.
var removed = map[string]map[string]string{
	"replica": {
		`events`: "", `health.servers.0.roles`: "",
		`health.servers.1`: "fs1b", `health.servers.2`: "fs1c",
		`health.servers.3`: "fs2", `health.servers.4`: "services", `health.servers.5`: "ws-mann",
	},
}

// TestDocumentsKeepEveryValue: every leaf of each version-1 document —
// number, boolean, log line and prose — is exactly one of (a) equal at
// a named path of the committed document that replaced it (µs → ns and
// team 1 ≡ FileServerTeam 0 allowed), (b) recomputed from named leaves by
// a stated formula, or (c) an oracle boolean the collector enforces, and
// true. A leaf no rule maps, or two rules map, fails. A leaf in moved
// must hold its v1 value there and map to its new one; a leaf under an
// entry in removed must map to nothing.
func TestDocumentsKeepEveryValue(t *testing.T) {
	for _, e := range Exports() {
		t.Run(e.Flag, func(t *testing.T) {
			rules := keepEvery[e.Flag]
			if len(rules) == 0 {
				t.Fatalf("no map for BENCH_%s.json", e.Flag)
			}
			type compiled struct {
				keep
				re *regexp.Regexp
			}
			var cs []compiled
			for _, r := range rules {
				p := strings.ReplaceAll(r.v1, "**", `(.+)`)
				p = strings.ReplaceAll(p, "#", `(?P<i>\d+)`)
				p = strings.ReplaceAll(p, ".*", `.(\d+)`)
				cs = append(cs, compiled{r, regexp.MustCompile("^" + p + "$")})
			}

			var old, raw any
			var doc Result
			readJSON(t, filepath.Join("testdata", "v1", "BENCH_"+e.Flag+".json"), &old)
			readJSON(t, filepath.Join("..", "..", "BENCH_"+e.Flag+".json"), &raw)
			readJSON(t, filepath.Join("..", "..", "BENCH_"+e.Flag+".json"), &doc)
			if doc.ID != e.ID || doc.Schema != docSchema {
				t.Fatalf("document is %s schema %d, want %s schema %d", doc.ID, doc.Schema, e.ID, docSchema)
			}

			leaves, seen := 0, map[string]bool{}
			v1Leaves("", old, func(path string, v any) {
				leaves++
				want := v
				if m, ok := moved[e.Flag][path]; ok {
					if v != m.v1 {
						t.Errorf("%s = %v in v1, but moved lists %v", path, v, m.v1)
					}
					want, seen[path] = m.now, true
				}
				for entry, host := range removed[e.Flag] {
					if strings.HasPrefix(path, entry+".") {
						if got := at("/" + entry + ".host")(leaf{raw: old}); host != "" && got != host {
							t.Errorf("%s: removed entry %s reports host %v in v1, want %s", path, entry, got, host)
						}
						want = nil
					}
				}
				var hits []string
				for _, c := range cs {
					m := c.re.FindStringSubmatch(path)
					if m == nil {
						continue
					}
					hits = append(hits, c.v1)
					legIdx, groups := c.leg, m[1:]
					if i := c.re.SubexpIndex("i"); i > 0 {
						n, _ := strconv.Atoi(m[i])
						legIdx += n
						groups = m[i+1:]
					}
					if legIdx >= len(doc.Legs) {
						t.Errorf("%s: rule %q names leg %d of %d", path, c.v1, legIdx, len(doc.Legs))
						return
					}
					l := leaf{doc: doc, raw: raw, leg: doc.Legs[legIdx], rawLeg: at("/legs." + strconv.Itoa(legIdx))(leaf{raw: raw}), groups: groups, v1: v}
					if got := c.want(l); got != want {
						t.Errorf("%s = %v in v1, %v by rule %q (leg %d %q), want %v", path, v, got, c.v1, legIdx, doc.Legs[legIdx].Label, want)
					}
				}
				if len(hits) != 1 {
					t.Errorf("%s: mapped by %d rules %q, want exactly one", path, len(hits), hits)
				}
			})
			for path := range moved[e.Flag] {
				if !seen[path] {
					t.Errorf("moved lists %s, which is no leaf of v1", path)
				}
			}
			t.Logf("%d v1 leaves kept", leaves)
		})
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestDocumentReruns: a document holds what it takes to rerun it. The
// scenarios of the committed BENCH_shard.json's one- and two-shard legs
// and BENCH_cache.json's partition leg, run again, record evidence
// byte-equal to what the document holds.
func TestDocumentReruns(t *testing.T) {
	for _, c := range []struct {
		doc   string
		label string
	}{
		{"shard", "shards=1"},
		{"shard", "shards=2"},
		{"cache", "partition: redefine behind partition"},
	} {
		t.Run(c.doc+"/"+c.label, func(t *testing.T) {
			var doc struct {
				Legs []struct {
					Label    string
					Scenario *rig.Scenario
					Evidence json.RawMessage
				}
			}
			readJSON(t, filepath.Join("..", "..", "BENCH_"+c.doc+".json"), &doc)
			for _, leg := range doc.Legs {
				if leg.Label != c.label {
					continue
				}
				_, ev, err := rig.Run(*leg.Scenario)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				if err := json.Compact(&want, leg.Evidence); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("rerun records\n%s\nthe document holds\n%s", got, want.Bytes())
				}
				return
			}
			t.Fatalf("BENCH_%s.json has no leg %q", c.doc, c.label)
		})
	}
}
