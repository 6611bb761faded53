// Command benchpair runs the repository benchmark (BENCHMARK.json,
// bench/README.md) on two revisions, alternating them seed by seed, and
// appends one row per workload to LEDGER.json: for every end-to-end metric
// both medians, the base's interquartile range, the pairs the head won and
// a verdict.
//
//	go run ./cmd/benchpair -base HEAD~1 -w paper_fileio -seeds 11,12,13,14
//
// The base is extracted with git archive into a temporary directory; the
// head is the working tree, named in the row by its commit with
// "+worktree" appended when it has uncommitted changes. Every run is
// `bash bench/run.sh` in its side's checkout, the command BENCHMARK.json
// names, so both sides build with run.sh's own flags; the base runs first
// on even-indexed seeds, the head on odd ones. Run it from the repository
// root. Host time is not deterministic, so the ledger is a record, not a
// golden.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// benchmark is the part of BENCHMARK.json benchpair reads.
type benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// row is one ledger entry: one workload compared on two revisions.
type row struct {
	Workload string   `json:"workload"`
	Base     string   `json:"base"`
	Head     string   `json:"head"`
	Seeds    []uint64 `json:"seeds"`
	Seconds  int      `json:"seconds"`
	Host     string   `json:"host"`
	Note     string   `json:"note,omitempty"`
	health
	NoGain  string       `json:"no_gain,omitempty"` // why no metric may be a gain
	Metrics []comparison `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	workloads := flag.String("w", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
	seedList := flag.String("seeds", "", "comma-separated seeds, one pair of runs each (required)")
	note := flag.String("note", "", "note recorded in every row, e.g. what the run claims")
	flag.Parse()
	if err := run(*base, *workloads, *seedList, *note); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(base, workloads, seedList, note string) error {
	if base == "" || seedList == "" {
		return errors.New("-base and -seeds are required")
	}
	var bm benchmark
	if err := readJSON("BENCHMARK.json", &bm); err != nil {
		return err
	}
	var seeds []uint64
	for _, s := range strings.Split(seedList, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("seed %q: %w", s, err)
		}
		seeds = append(seeds, seed)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if workloads != "" {
		names = strings.Split(workloads, ",")
	}

	baseRev, err := git("rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return err
	}
	headRev, err := git("rev-parse", "HEAD")
	if err != nil {
		return err
	}
	if dirty, err := git("status", "--porcelain", "--untracked-files=no"); err != nil {
		return err
	} else if dirty != "" {
		headRev += "+worktree"
	}
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := archive(baseRev, tmp); err != nil {
		return err
	}
	sides := [2]string{tmp, "."}

	for _, w := range names {
		var runs [2][]result
		for i, seed := range seeds {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				res, err := benchRun(sides[side], w, seed, bm.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s seed %d on %s: %w", w, seed, [2]string{"base", "head"}[side], err)
				}
				fmt.Fprintf(os.Stderr, "%s seed %d %s: host_ns_per_op %.0f\n", w, seed, [2]string{"base", "head"}[side], res.Metrics["host_ns_per_op"].Value)
				runs[side] = append(runs[side], res)
			}
		}
		r := row{Workload: w, Base: baseRev, Head: headRev, Seeds: seeds, Seconds: bm.RunSeconds, Host: host(), Note: note,
			health: check(seeds, runs)}
		r.NoGain = r.noGain(len(seeds))
		for _, m := range bm.EndToEnd {
			var v [2][]float64
			for side := range runs {
				for _, res := range runs[side] {
					v[side] = append(v[side], res.Metrics[m.Name].Value)
				}
			}
			r.Metrics = append(r.Metrics, compare(m, v[0], v[1], r.health))
		}
		printRow(r)
		// Appended at once: a later workload's failure or an interrupt
		// must not throw away the minutes of runs behind this row.
		if err := appendLedger("LEDGER.json", r); err != nil {
			return err
		}
	}
	return nil
}

// benchRun runs one untraced benchmark run in checkout dir and parses its
// result line and its digest. A run that counted failed operations exits
// non-zero but still reports; only a run without both is an error.
func benchRun(dir, workload string, seed uint64, seconds int) (result, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	for _, line := range lines {
		if _, digest, ok := bytes.Cut(line, []byte(", digest ")); ok {
			res.Digest = string(digest)
		}
	}
	if res.Digest == "" {
		return res, errors.Join(runErr, errors.New("no digest line"))
	}
	return res, nil
}

// archive extracts revision rev into dir.
func archive(rev, dir string) error {
	gitArchive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := gitArchive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	gitArchive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := gitArchive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return untar.Wait()
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// host describes the machine the pairs ran on: CPU model and count.
func host() string {
	desc := runtime.GOARCH
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				desc = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d CPUs", desc, runtime.NumCPU())
}

func printRow(r row) {
	fmt.Printf("%s: base %s, head %s, %d pairs of %d s, failed %d / %d\n",
		r.Workload, short(r.Base), short(r.Head), len(r.Seeds), r.Seconds, r.Failed[0], r.Failed[1])
	if r.NoGain != "" {
		fmt.Printf("  no gain: %s\n", r.NoGain)
	}
	fmt.Printf("  %-20s %14s %14s %9s %12s %6s  %s\n", "metric", "base median", "head median", "change", "base iqr", "won", "verdict")
	for _, c := range r.Metrics {
		fmt.Printf("  %-20s %14.6g %14.6g %8.2f%% %12.4g %3d/%-2d  %s\n",
			c.Name, c.Base, c.Head, 100*c.Change, c.BaseIQR, c.PairsWon, c.Pairs, c.Verdict)
	}
}

// short abbreviates a revision the way git log does, keeping "+worktree".
func short(rev string) string {
	sha, worktree := strings.CutSuffix(rev, "+worktree")
	if len(sha) > 12 {
		sha = sha[:12]
	}
	if worktree {
		sha += "+worktree"
	}
	return sha
}

// appendLedger adds r to the JSON array in path, creating it if need be.
func appendLedger(path string, r row) error {
	var all []json.RawMessage
	if err := readJSON(path, &all); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	b, err := json.MarshalIndent(r, "  ", "  ")
	if err != nil {
		return err
	}
	all = append(all, b)
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, b := range all {
		buf.WriteString("  ")
		buf.Write(b)
		if i < len(all)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
