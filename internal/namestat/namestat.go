// Package namestat is the name-space analytics layer: one cardinality-
// bounded table that answers "which names are hot, and how fast is
// each one churning?" without holding per-name state for a 10⁶-name
// population.
//
// TopK is a space-saving sketch (Metwally et al.): at most k counters;
// a hit increments its counter, a new name with the table full replaces
// the minimum counter and inherits its count as the error bound. Any
// name whose true count exceeds N/k is guaranteed present, which is
// exactly the regime a Zipf-distributed workload lives in.
//
// Each entry also carries its name's churn estimators: event-driven
// EWMAs over virtual time of the resolution, redefinition and renewal
// rates (Hz), and the invalidation count and fan-out. They start afresh
// when the entry is replaced. The sketch ranks names by resolution, so
// only a resolution (Observe, ObserveResolution) admits a name; a churn
// event updates a name the sketch holds and is dropped for any other.
//
// The sketch is an observer in the PROTOCOL.md §15 sense: observing
// charges no virtual time and is nil-safe, so record sites need no
// presence checks. It registers no metrics instruments on its own — the
// registry series a document leg records (BENCH_metrics.json) stay
// byte-identical with it installed — but Publish copies a snapshot into
// a metrics registry on demand for the Prometheus and vstat surfaces.
package namestat

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// TopK is a space-saving top-k sketch. All methods are nil-safe.
//
// The k entries live by value in a fixed array; heap is a min-heap of
// small nodes over them ordered by (count, name), so the entry a full
// sketch replaces — the minimum count, ties broken by the smaller name,
// which keeps the sketch's evolution independent of storage order — is
// always heap[0]. An observation hashes its name once and finds its
// node by scanning the k hashes kept beside the heap, a string compare
// confirming, unless held shows no hash with its low byte; no map is
// kept, so a replacement deletes and inserts nothing. A node carries its
// name's first eight bytes as an integer, so names are compared only
// when those are equal. Observing allocates nothing.
type TopK struct {
	mu   sync.Mutex
	ents []topEntry  // at most cap(ents) = k, never reordered
	heap []node      // min (count, name) first
	hash []uint64    // hash[p] is heap[p]'s name's hash under seed
	held [256]uint32 // held[b]: hashes whose low byte is b
}

// node is one entry's heap position: its count, its name's prefixKey
// and its index into ents.
type node struct {
	count, key uint64
	i          int32
}

type topEntry struct {
	name string
	err  uint64 // overestimate bound inherited at replacement
	churn
}

// prefixKey is name's first eight bytes, big-endian and zero-padded:
// keys order as their names do, or are equal.
func prefixKey(name string) uint64 {
	var b [8]byte
	copy(b[:], name)
	return binary.BigEndian.Uint64(b[:])
}

// seed keys every sketch's name hashes.
var seed = maphash.MakeSeed()

// churn is one tracked name's estimator state.
type churn struct {
	res, redef, renew ewma
	invalidations     uint64
	fanout            float64 // EWMA of per-invalidation holder fan-out
}

// Item is one sketch entry: Count overestimates the true count by at
// most Err.
type Item struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// NewTopK returns a sketch holding at most k names (minimum 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{
		ents: make([]topEntry, 0, k),
		heap: make([]node, 0, k),
		hash: make([]uint64, 0, k),
	}
}

// Observe records one occurrence of name: O(k), no allocation.
func (t *TopK) Observe(name string) {
	if t == nil {
		return
	}
	h := maphash.String(seed, name)
	t.mu.Lock()
	t.count(h, name)
	t.mu.Unlock()
}

// ObserveResolution records one resolution of name at virtual time at:
// Observe, and a tick of the name's resolution rate, under one lock.
func (t *TopK) ObserveResolution(name string, at time.Duration) {
	if t == nil {
		return
	}
	h := maphash.String(seed, name)
	t.mu.Lock()
	t.ents[t.count(h, name)].res.observe(at)
	t.mu.Unlock()
}

// find returns the heap position of name's node, whose hash is h, or
// -1. The caller holds mu.
func (t *TopK) find(h uint64, name string) int {
	if t.held[uint8(h)] == 0 {
		return -1
	}
	for p, x := range t.hash {
		if x == h && t.ents[t.heap[p].i].name == name {
			return p
		}
	}
	return -1
}

// count records one occurrence of name, whose hash is h, and returns its
// entry's index. The caller holds mu.
func (t *TopK) count(h uint64, name string) int32 {
	if p := t.find(h, name); p >= 0 {
		i := t.heap[p].i
		t.heap[p].count++
		t.down(p)
		return i
	}
	if len(t.ents) < cap(t.ents) {
		i := int32(len(t.ents))
		t.ents = append(t.ents, topEntry{name: name})
		t.heap = append(t.heap, node{count: 1, key: prefixKey(name), i: i})
		t.hash = append(t.hash, h)
		t.held[uint8(h)]++
		t.up(int(i))
		return i
	}
	// Replace the minimum entry: the newcomer inherits its count as the
	// error bound, and none of its churn state.
	n := t.heap[0]
	t.ents[n.i] = topEntry{name: name, err: n.count}
	t.heap[0] = node{count: n.count + 1, key: prefixKey(name), i: n.i}
	t.held[uint8(t.hash[0])]--
	t.held[uint8(h)]++
	t.hash[0] = h
	t.down(0)
	return n.i
}

// before reports whether the node at heap index a orders before the one
// at b.
func (t *TopK) before(a, b int) bool {
	x, y := &t.heap[a], &t.heap[b]
	if x.count != y.count {
		return x.count < y.count
	}
	if x.key != y.key {
		return x.key < y.key
	}
	return t.ents[x.i].name < t.ents[y.i].name
}

func (t *TopK) swap(a, b int) {
	t.heap[a], t.heap[b] = t.heap[b], t.heap[a]
	t.hash[a], t.hash[b] = t.hash[b], t.hash[a]
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(i, parent) {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *TopK) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(t.heap) {
			return
		}
		if c+1 < len(t.heap) && t.before(c+1, c) {
			c++
		}
		if !t.before(c, i) {
			return
		}
		t.swap(i, c)
		i = c
	}
}

// Snapshot returns the sketch sorted by count descending, ties by name
// ascending — a deterministic ranking.
func (t *TopK) Snapshot() []Item {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	items := make([]Item, 0, len(t.heap))
	for _, n := range t.heap {
		items = append(items, Item{Name: t.ents[n.i].name, Count: n.count, Err: t.ents[n.i].err})
	}
	t.mu.Unlock()
	sort.Slice(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return items[i].Name < items[j].Name
	})
	return items
}

// ewmaAlpha weights the newest inter-event gap at 30%: a few
// observations converge the estimate, one outlier doesn't own it.
const ewmaAlpha = 0.3

// ewma is one event-driven rate estimator: each event contributes an
// instantaneous rate 1/gap blended at ewmaAlpha. There is no decay
// between events — a name that stopped being redefined keeps its last
// estimate, which is the conservative reading a lease tuner wants.
type ewma struct {
	count  uint64
	last   time.Duration
	rateHz float64
}

func (e *ewma) observe(at time.Duration) {
	e.count++
	if e.count == 1 {
		e.last = at
		return
	}
	gap := at - e.last
	e.last = at
	if gap <= 0 {
		return
	}
	inst := float64(time.Second) / float64(gap)
	if e.count == 2 {
		e.rateHz = inst
		return
	}
	e.rateHz = ewmaAlpha*inst + (1-ewmaAlpha)*e.rateHz
}

// update applies f to name's churn state under the lock, if the sketch
// holds name.
func (t *TopK) update(name string, f func(*churn)) {
	if t == nil {
		return
	}
	h := maphash.String(seed, name)
	t.mu.Lock()
	if p := t.find(h, name); p >= 0 {
		f(&t.ents[t.heap[p].i].churn)
	}
	t.mu.Unlock()
}

// ObserveRedefinition records a binding mutation of name at at.
func (t *TopK) ObserveRedefinition(name string, at time.Duration) {
	t.update(name, func(c *churn) { c.redef.observe(at) })
}

// ObserveRenewal records a lease revalidation of name at at.
func (t *TopK) ObserveRenewal(name string, at time.Duration) {
	t.update(name, func(c *churn) { c.renew.observe(at) })
}

// ObserveInvalidation records one invalidation barrier for name that
// notified fanout holders.
func (t *TopK) ObserveInvalidation(name string, fanout int) {
	t.update(name, func(c *churn) {
		c.invalidations++
		if c.invalidations == 1 {
			c.fanout = float64(fanout)
		} else {
			c.fanout = ewmaAlpha*float64(fanout) + (1-ewmaAlpha)*c.fanout
		}
	})
}

// RedefRateHz returns the redefinition-rate estimate for name (0 if the
// name is untracked or has seen fewer than two redefinitions).
func (t *TopK) RedefRateHz(name string) (hz float64) {
	t.update(name, func(c *churn) { hz = c.redef.rateHz })
	return hz
}

// RateItem is the published estimator state for one name. Rates are in
// milli-Hz so they survive the registry's integer gauges exactly.
// MaxStaleUS is the widest stale window a client session observed
// (client.Session.LeaseNameRates); the sketch leaves it zero.
type RateItem struct {
	Name             string `json:"name"`
	Resolutions      uint64 `json:"resolutions"`
	Redefinitions    uint64 `json:"redefinitions"`
	Renewals         uint64 `json:"renewals"`
	Invalidations    uint64 `json:"invalidations"`
	ResRateMilliHz   int64  `json:"res_rate_mhz"`
	RedefRateMilliHz int64  `json:"redef_rate_mhz"`
	RenewRateMilliHz int64  `json:"renew_rate_mhz"`
	FanoutMilli      int64  `json:"fanout_milli"`
	MaxStaleUS       int64  `json:"max_stale_us"`
}

func milli(f float64) int64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int64(math.Round(f * 1000))
}

// Rates returns the estimators of every name the sketch holds, sorted
// by name.
func (t *TopK) Rates() []RateItem {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	items := make([]RateItem, 0, len(t.ents))
	for i := range t.ents {
		e := &t.ents[i]
		items = append(items, RateItem{
			Name:             e.name,
			Resolutions:      e.res.count,
			Redefinitions:    e.redef.count,
			Renewals:         e.renew.count,
			Invalidations:    e.invalidations,
			ResRateMilliHz:   milli(e.res.rateHz),
			RedefRateMilliHz: milli(e.redef.rateHz),
			RenewRateMilliHz: milli(e.renew.rateHz),
			FanoutMilli:      milli(e.fanout),
		})
	}
	t.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].Name < items[j].Name })
	return items
}

// Publish copies the sketch's counts and estimators into reg as
// volatile gauges (volatile so Snapshot.Deterministic() — and with it
// every golden document — is unaffected). server labels the publishing
// component; the observed name rides in the Op label.
func Publish(reg *metrics.Registry, server string, top *TopK) {
	if reg == nil {
		return
	}
	tops, rateItems := top.Snapshot(), top.Rates()
	points := make([]metrics.GaugePoint, 0, len(tops)+4*len(rateItems))
	gauge := func(name, observed string, v int64) {
		points = append(points, metrics.GaugePoint{
			Name:     name,
			Labels:   metrics.Labels{Server: server, Op: observed, Class: "namestat"},
			Value:    v,
			Volatile: true,
		})
	}
	for _, it := range tops {
		gauge("namestat_top_count", it.Name, int64(it.Count))
	}
	for _, it := range rateItems {
		gauge("namestat_res_rate_mhz", it.Name, it.ResRateMilliHz)
		gauge("namestat_redef_rate_mhz", it.Name, it.RedefRateMilliHz)
		gauge("namestat_renew_rate_mhz", it.Name, it.RenewRateMilliHz)
		gauge("namestat_invalidation_fanout_milli", it.Name, it.FanoutMilli)
	}
	// One registration for the lot, under one hold of the registry's
	// lock: a Gauge call apiece would count a by-label lookup per gauge
	// and make each new gauge non-volatile.
	reg.SetGauges(points)
}
