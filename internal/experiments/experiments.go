// Package experiments regenerates every quantitative result in the paper
// (§3.1 and §6) plus the ablations DESIGN.md derives from the paper's
// arguments (§2.2, §5.6, §7). Each experiment boots a deterministic rig,
// drives the protocol through the public client library, reads virtual
// time off the process clocks, and reports paper-vs-measured rows.
//
// See EXPERIMENTS.md for the recorded outputs and the discussion of where
// measured values may legitimately deviate from the paper's.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/vtime"
)

// Row is one reported measurement.
type Row struct {
	Label    string `json:"label"`
	Paper    string `json:"paper"` // the paper's value, or "-" when the paper gives none
	Measured string `json:"measured"`
	Note     string `json:"note,omitempty"`
}

// Result is one experiment's output.
type Result struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Source string `json:"source"` // where in the paper the numbers come from
	Rows   []Row  `json:"rows"`
}

// Runner produces one experiment result.
type Runner func() (Result, error)

// registry maps experiment ids to runners.
var registry = map[string]Runner{
	"e1":  E1,
	"e2":  E2,
	"e3":  E3,
	"t1":  T1,
	"e5":  E5,
	"a1":  A1,
	"a2":  A2,
	"a3":  A3,
	"a4":  A4,
	"a5":  A5,
	"a6":  A6,
	"a7":  A7,
	"a8":  A8,
	"a9":  A9,
	"a10": A10,
	"a11": A11,
	"a12": A12,
	"a14": A14,
	"a15": A15,
	"a16": A16,
	"a17": A17,
	"a18": A18,
	"a19": A19,
}

// sectionGuard reports whether experiment id is followed only by
// later-numbered a-series experiments in canonical order — the
// condition under which the byte-pinned vbench_output.txt sections
// preceding (and including) id cannot shift when new experiments land.
func sectionGuard(id string) bool {
	ids := IDs()
	pos := -1
	for i, have := range ids {
		if have == id {
			pos = i
			break
		}
	}
	if pos < 0 {
		return false
	}
	num, err := strconv.Atoi(id[1:])
	if err != nil {
		return false
	}
	for _, later := range ids[pos+1:] {
		if later[0] != 'a' {
			return false
		}
		n, err := strconv.Atoi(later[1:])
		if err != nil || n <= num {
			return false
		}
	}
	return true
}

// IDs returns the experiment ids in canonical order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Canonical order: E-series, T-series, A-series, numerically within
	// each series (so a10 follows a9).
	sort.Slice(ids, func(i, j int) bool {
		rank := func(s string) string {
			series := "2"
			switch s[0] {
			case 'e':
				series = "0"
			case 't':
				series = "1"
			}
			num := s[1:]
			for len(num) < 3 {
				num = "0" + num
			}
			return series + num
		}
		return rank(ids[i]) < rank(ids[j])
	})
	return ids
}

// Run executes one experiment by id. "chaos" is accepted as an alias
// for the A10 fault-injection sweep (`vbench chaos`).
func Run(id string) (Result, error) {
	id = strings.ToLower(id)
	if id == "chaos" {
		id = "a10"
	}
	r, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r()
}

// Print renders a result as an aligned table.
func Print(w io.Writer, res Result) {
	fmt.Fprintf(w, "%s — %s (%s)\n", strings.ToUpper(res.ID), res.Title, res.Source)
	labelW, paperW, measW := len("measurement"), len("paper"), len("measured")
	for _, r := range res.Rows {
		labelW = max(labelW, len(r.Label))
		paperW = max(paperW, len(r.Paper))
		measW = max(measW, len(r.Measured))
	}
	line := func(a, b, c, d string) {
		fmt.Fprintf(w, "  %-*s  %*s  %*s  %s\n", labelW, a, paperW, b, measW, c, d)
	}
	line("measurement", "paper", "measured", "note")
	line(strings.Repeat("-", labelW), strings.Repeat("-", paperW), strings.Repeat("-", measW), "----")
	for _, r := range res.Rows {
		line(r.Label, r.Paper, r.Measured, r.Note)
	}
	fmt.Fprintln(w)
}

// docJSON renders a collected document the way the committed goldens
// store it: indented JSON with a trailing newline.
func docJSON(doc any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ms renders a virtual duration in the paper's unit.
func ms(d time.Duration) string { return vtime.Milliseconds(d) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
