package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// Verdicts, by bench/README.md's rules for comparing two commits.
const (
	// Gain: the row's runs may carry one (see health.noGain), the head is
	// better on at least nine pairs in ten, and its median is better by
	// more than the base's interquartile range.
	verdictGain = "gain"
	// Regression: the head's median is worse by more than the bound.
	verdictRegression = "regression"
	// Unresolved: the pairs differ and either side's interquartile range,
	// as a share of its median, is wider than the bound — the host cannot
	// tell.
	verdictUnresolved = "unresolved"
	// Within bound: none of the above.
	verdictWithin = "within bound"
)

// comparison is one metric of a ledger row.
type comparison struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Base     float64 `json:"base_median"`
	Head     float64 `json:"head_median"`
	BaseIQR  float64 `json:"base_iqr"`
	Change   float64 `json:"change"` // head median ÷ base median − 1
	PairsWon int     `json:"pairs_won"`
	Pairs    int     `json:"pairs"`
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// minPairs is the fewest pairs a gain may rest on: nine wins in ten.
const minPairs = 10

// result is the outcome of one benchmark run: its JSON result line, and
// the simulation digest its report prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	Digest string `json:"-"`
}

// health is what a row's runs report besides their metrics.
type health struct {
	Failed    [2]int   `json:"failed"`                // failed operations over all runs, base and head
	Incorrect [2]int   `json:"incorrect"`             // runs that reported correct false, base and head
	SimDiffer []uint64 `json:"sim_differs,omitempty"` // seeds whose two runs differ in a sim_* value or the digest
}

// check gathers the health of runs[side][i], which ran seeds[i].
func check(seeds []uint64, runs [2][]result) health {
	var h health
	for side := range runs {
		for _, r := range runs[side] {
			h.Failed[side] += r.Failed
			if !r.Correct {
				h.Incorrect[side]++
			}
		}
	}
	for i, seed := range seeds {
		b, hd := runs[0][i], runs[1][i]
		same := b.Digest == hd.Digest
		for name, v := range b.Metrics {
			if strings.HasPrefix(name, "sim_") && hd.Metrics[name] != v {
				same = false
			}
		}
		if !same {
			h.SimDiffer = append(h.SimDiffer, seed)
		}
	}
	return h
}

// noGain says why no metric of a row of pairs pairs may be a gain, or ""
// when one may: bench/README.md compares only correct runs of the same
// simulation, and the head may not fail more operations than the base.
func (h health) noGain(pairs int) string {
	switch {
	case pairs < minPairs:
		return fmt.Sprintf("%d pairs, a gain wants %d", pairs, minPairs)
	case h.Incorrect != [2]int{}:
		return fmt.Sprintf("runs reported incorrect: %d base, %d head", h.Incorrect[0], h.Incorrect[1])
	case h.Failed[1] > h.Failed[0]:
		return fmt.Sprintf("the head failed %d operations, the base %d", h.Failed[1], h.Failed[0])
	case len(h.SimDiffer) > 0:
		return fmt.Sprintf("the simulation differs on seeds %v", h.SimDiffer)
	}
	return ""
}

// compare judges the head's runs against the base's, paired by index:
// base[i] and head[i] ran the same seed, and h is the row's health.
func compare(m metricSpec, base, head []float64, h health) comparison {
	c := comparison{Name: m.Name, Unit: m.Unit, Base: median(base), Head: median(head),
		BaseIQR: iqr(base), Pairs: len(base), Bound: m.Bound}
	if c.Base != 0 {
		c.Change = c.Head/c.Base - 1
	}
	better := func(hv, bv float64) bool { return hv < bv }
	if m.Better == "higher" {
		better = func(hv, bv float64) bool { return hv > bv }
	}
	for i := range base {
		if better(head[i], base[i]) {
			c.PairsWon++
		}
	}
	worse := c.Change
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case h.noGain(c.Pairs) == "" && 10*c.PairsWon >= 9*c.Pairs && better(c.Head, c.Base) && math.Abs(c.Head-c.Base) > c.BaseIQR:
		c.Verdict = verdictGain
	case worse > m.Bound:
		c.Verdict = verdictRegression
	case !slices.Equal(base, head) && (spread(base) > m.Bound || spread(head) > m.Bound):
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictWithin
	}
	return c
}

// median returns the middle value of v (the mean of the two middle ones
// for an even count); 0 for none.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := sorted(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqr is the interquartile range, with the quartiles the benchmark's own
// self-check uses (Python's statistics.quantiles(v, n=4), exclusive
// method); 0 with fewer than two values.
func iqr(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := sorted(v)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(3) - q(1)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	if m := median(v); m != 0 {
		return iqr(v) / math.Abs(m)
	}
	return 0
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
