package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Check is one scorecard line: a claim from the paper and whether this
// reproduction's measurement upholds it.
type Check struct {
	Claim   string
	Paper   string
	Got     string
	Upholds bool
}

// scorecard grades the reproduction against the paper's published values
// and invariants: absolute anchors within tolerance, and the qualitative
// claims (orderings, equalities, who-wins) that carry the paper's
// argument. Each entry reads the rows of experiment id.
var scorecard = []struct {
	id, claim, paper string
	grade            func(rows []Row) (got string, upholds bool)
}{
	{"e1", "32-byte remote message transaction", "2.56 ms", func(rows []Row) (string, bool) {
		remote := msOf(rows[0])
		return fmt.Sprintf("%.2f ms", remote), within(remote, 2.56, 0.02)
	}},
	{"e2", "64 KB program load via MoveTo", "338 ms", func(rows []Row) (string, bool) {
		load := msOf(rows[0])
		return fmt.Sprintf("%.2f ms", load), within(load, 338, 0.05)
	}},
	{"e3", "sequential read near the 15 ms/page disk rate", "17.13 ms/page", func(rows []Row) (string, bool) {
		withRA, withoutRA := msOf(rows[0]), msOf(rows[1])
		return fmt.Sprintf("%.2f-%.2f ms/page envelope", withRA, withoutRA), withRA <= 17.13 && 17.13 <= withoutRA
	}},
	{"t1", "Open ordering: current<prefix, local<remote", "1.21 < 3.70 < 5.14* < 7.69", func(rows []Row) (string, bool) {
		q := [4]float64{msOf(rows[0]), msOf(rows[1]), msOf(rows[2]), msOf(rows[3])}
		return fmt.Sprintf("%.2f / %.2f / %.2f / %.2f", q[0], q[1], q[2], q[3]),
			q[0] < q[1] && q[0] < q[2] && q[1] < q[3] && q[2] < q[3]
	}},
	{"t1", "prefix overhead identical in both columns", "3.94 ≈ 3.99 ms", func(rows []Row) (string, bool) {
		dLocal, dRemote := msOf(rows[4]), msOf(rows[5])
		return fmt.Sprintf("%.2f ≈ %.2f ms", dLocal, dRemote), math.Abs(dLocal-dRemote) <= 0.15
	}},
	{"a2", "centralized name server costs an extra interaction", "argued in §2.2", func(rows []Row) (string, bool) {
		dist, cent := msOf(rows[0]), msOf(rows[1])
		return fmt.Sprintf("%.2fx the distributed cost", cent/dist), cent > dist
	}},
	{"a3", "crash-consistency: names die with objects", "0 dangling (§2.2)", func(rows []Row) (string, bool) {
		return rows[1].Measured + " (V) vs " + rows[0].Measured + " (centralized)",
			strings.HasPrefix(rows[1].Measured, "0 ")
	}},
	{"a4", "no central naming failure point", "all reachable (§2.2)", func(rows []Row) (string, bool) {
		return rows[1].Measured + " (V) vs " + rows[0].Measured + " (centralized)",
			rows[1].Measured == "10/10" && rows[0].Measured == "0/10"
	}},
	{"a5", "dynamic service bindings rebind after crash", "GetPid per use (§6)", func(rows []Row) (string, bool) {
		return rows[0].Measured, rows[0].Measured == "recovers"
	}},
	{"a11", "server team overlaps name interpretation", "team of processes (§3.1)", func(rows []Row) (string, bool) {
		// Rows 0 and 4 are the cache-hit phase at team=1 and team=4.
		ratio := reqsOf(rows[4]) / reqsOf(rows[0])
		return fmt.Sprintf("team=4 serves %.1fx team=1 throughput", ratio), ratio >= 2
	}},
}

// msOf reads a row measured in the paper's unit ("2.56 ms") back as a
// number: NaN — which upholds nothing — when the cell is not one.
func msOf(r Row) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(r.Measured, " ms"), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// reqsOf reads the throughput a row leads with ("1234 req/s, …"), NaN
// likewise.
func reqsOf(r Row) float64 {
	var v float64
	if _, err := fmt.Sscanf(r.Measured, "%f req/s", &v); err != nil {
		return math.NaN()
	}
	return v
}

func within(got, want, tolerance float64) bool {
	return math.Abs(got-want) <= want*tolerance
}

// Scorecard runs each anchored experiment once and grades its rows.
func Scorecard() ([]Check, error) {
	var checks []Check
	ran := make(map[string][]Row)
	for _, c := range scorecard {
		rows, ok := ran[c.id]
		if !ok {
			res, err := Run(c.id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.id, err)
			}
			rows = res.Rows
			ran[c.id] = rows
		}
		got, upholds := c.grade(rows)
		checks = append(checks, Check{Claim: c.claim, Paper: c.paper, Got: got, Upholds: upholds})
	}
	return checks, nil
}

// PrintScorecard renders the scorecard.
func PrintScorecard(w interface{ Write([]byte) (int, error) }, checks []Check) {
	fmt.Fprintln(w, "reproduction scorecard")
	claimW, paperW, gotW := 0, 0, 0
	for _, c := range checks {
		claimW = max(claimW, len(c.Claim))
		paperW = max(paperW, len(c.Paper))
		gotW = max(gotW, len(c.Got))
	}
	for _, c := range checks {
		verdict := "REPRODUCED"
		if !c.Upholds {
			verdict = "DEVIATES"
		}
		fmt.Fprintf(w, "  %-*s  paper %-*s  measured %-*s  %s\n",
			claimW, c.Claim, paperW, c.Paper, gotW, c.Got, verdict)
	}
}
