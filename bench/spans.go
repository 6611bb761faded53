package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/rig"
)

// Spans are recorded from the benchmark's own files, around the calls into
// the program: one "driver" span per repetition, and under it one
// "classify" and one "op" span per operation. Every span's interval is
// kept (16 bytes each) so self time can be computed exactly; only every
// spanKeepEvery-th operation is written out, which keeps the span file to
// a few megabytes at 5x10^5 operations.
const spanKeepEvery = 64

type interval struct{ start, end int64 } // host ns since the recorder's origin

// clientSpans is one client's recorder, indexed by iteration. A client's
// operations run one at a time on its lane's goroutine, so it needs no
// lock. The engine may classify an operation twice (across a fence); the
// later classification is the one that held.
type clientSpans struct {
	op, classify []interval
	confined     []bool
}

type spanRecorder struct {
	origin  time.Time
	clients []*clientSpans
	driver  interval
}

func (r *spanRecorder) now() int64 { return int64(time.Since(r.origin)) }

// instrument wraps every client's Op and Classify closure of a built
// instance. The wrapped closures do the original work; the recorder only
// reads the host clock around them.
func instrument(in *instance) *spanRecorder {
	r := &spanRecorder{origin: time.Now()}
	for _, c := range in.clients {
		cs := &clientSpans{op: make([]interval, c.Requests)}
		r.clients = append(r.clients, cs)
		op := c.Op
		c.Op = func(s *client.Session, i int) error {
			t0 := r.now()
			err := op(s, i)
			cs.op[i] = interval{t0, r.now()}
			return err
		}
		if classify := c.Classify; classify != nil {
			cs.classify = make([]interval, c.Requests)
			cs.confined = make([]bool, c.Requests)
			c.Classify = func(s *client.Session, i int) engine.Class {
				t0 := r.now()
				cls := classify(s, i)
				cs.classify[i] = interval{t0, r.now()}
				cs.confined[i] = cls == engine.Confined
				return cls
			}
		}
	}
	drive := in.drive
	in.drive = func(cs []*rig.WorkloadClient) *rig.WorkloadResult {
		r.driver.start = r.now()
		res := drive(cs)
		r.driver.end = r.now()
		return res
	}
	return r
}

// spanSummary is what the traced metrics need from one repetition's spans.
type spanSummary struct {
	ops           int
	opNs          int64 // sum of op span durations
	coveredNs     int64 // part of the driver span some op or classify span covers
	driverNs      int64
	confinedShare float64
}

func (r *spanRecorder) summarize() spanSummary {
	var s spanSummary
	var all []interval
	confined, classified := 0, 0
	for _, c := range r.clients {
		s.ops += len(c.op)
		for _, iv := range c.op {
			s.opNs += iv.end - iv.start
		}
		all = append(all, c.op...)
		all = append(all, c.classify...)
		for _, yes := range c.confined {
			if yes {
				confined++
			}
		}
		classified += len(c.confined)
	}
	// Lanes interleave at blocking points, so op spans of different lanes
	// overlap in host time; the driver's self time is its span minus the
	// union of its children, not minus their sum.
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	var end int64
	for _, iv := range all {
		if iv.start > end {
			s.coveredNs += iv.end - iv.start
			end = iv.end
		} else if iv.end > end {
			s.coveredNs += iv.end - end
			end = iv.end
		}
	}
	s.driverNs = r.driver.end - r.driver.start
	if classified > 0 {
		s.confinedShare = float64(confined) / float64(classified)
	}
	return s
}

// spanRecord is the on-disk form: name, start, end, the span that caused
// it, and the operation's identifier (client index and iteration).
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Client  int    `json:"client"`
	Iter    int    `json:"iter"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// write stores the sampled spans of one repetition as JSON.
func (r *spanRecorder) write(path, workload string, seed uint64) error {
	recs := []spanRecord{{ID: 0, Parent: -1, Name: "rig.driver", Client: -1, Iter: -1, StartNs: r.driver.start, EndNs: r.driver.end}}
	for ci, c := range r.clients {
		for i := 0; i < len(c.op); i += spanKeepEvery {
			if i < len(c.classify) {
				recs = append(recs, spanRecord{ID: len(recs), Parent: 0, Name: "engine.classify", Client: ci, Iter: i,
					StartNs: c.classify[i].start, EndNs: c.classify[i].end})
			}
			recs = append(recs, spanRecord{ID: len(recs), Parent: 0, Name: "client.op", Client: ci, Iter: i,
				StartNs: c.op[i].start, EndNs: c.op[i].end})
		}
	}
	doc := struct {
		Workload  string       `json:"workload"`
		Seed      uint64       `json:"seed"`
		KeepEvery int          `json:"keep_every"`
		Spans     []spanRecord `json:"spans"`
	}{workload, seed, spanKeepEvery, recs}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
