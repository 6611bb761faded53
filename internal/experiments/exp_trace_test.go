package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCanonicalTraceGolden pins the canonical single-client trace
// byte-for-byte. The trace is a full account of the resolution path —
// client op, prefix lookup, receptionist, worker, every wire frame — so
// any change to routing, the cost model, or the tracer shows up here.
// Regenerate deliberately with UPDATE_GOLDEN=1.
func TestCanonicalTraceGolden(t *testing.T) {
	got, err := CanonicalTrace()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical trace deviates from %s (%d bytes got, %d want); "+
			"if the change is intentional regenerate with UPDATE_GOLDEN=1",
			golden, len(got), len(want))
	}
}

// TestCanonicalTraceDeterministic proves tracing itself is deterministic:
// two independent boots of the same seed and workload must produce
// byte-identical trace documents — same span ids, same timestamps, same
// frame order.
func TestCanonicalTraceDeterministic(t *testing.T) {
	a, err := CanonicalTrace()
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and workload produced different traces")
	}
}

// TestCanonicalTraceValidJSON checks the export parses and has the
// expected document shape: a version, a populated span tree that starts
// at the client op, and wire frames.
func TestCanonicalTraceValidJSON(t *testing.T) {
	data, err := CanonicalTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version int `json:"version"`
		Spans   []struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Kind   string `json:"kind"`
		} `json:"spans"`
		Frames []struct {
			Bytes int `json:"bytes"`
		} `json:"frames"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Version != 1 {
		t.Fatalf("version = %d, want 1", doc.Version)
	}
	if len(doc.Spans) == 0 || len(doc.Frames) == 0 {
		t.Fatalf("trace has %d spans, %d frames; want both non-empty", len(doc.Spans), len(doc.Frames))
	}
	if doc.Spans[0].Kind != "client-op" || doc.Spans[0].Parent != 0 {
		t.Fatalf("first span = %+v, want a root client-op", doc.Spans[0])
	}
	kinds := make(map[string]int)
	for _, s := range doc.Spans {
		kinds[s.Kind]++
	}
	// The resolution path must appear end to end: client op → send →
	// prefix serve + forward → file-server serve → reply, with the wire
	// hops recorded.
	for _, k := range []string{"client-op", "send", "serve", "forward", "reply", "wire"} {
		if kinds[k] == 0 {
			t.Errorf("canonical trace has no %q span (kinds: %v)", k, kinds)
		}
	}
}

// TestA12Decomposition checks A12's rows: the total must match E1's
// paper value and the note-level identity (request + dwell + reply =
// total) is enforced inside A12 itself, so here we check shape and the
// headline number.
func TestA12Decomposition(t *testing.T) {
	res, err := Run("a12")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "a12" || len(res.Rows) != 7 {
		t.Fatalf("unexpected result shape: id=%q rows=%d", res.ID, len(res.Rows))
	}
	total := res.Rows[0]
	if total.Paper != "2.56 ms" {
		t.Fatalf("total row paper value = %q", total.Paper)
	}
	if total.Measured != total.Paper {
		t.Fatalf("measured total %q deviates from the paper's %q", total.Measured, total.Paper)
	}
	for _, row := range res.Rows {
		if !strings.HasSuffix(row.Measured, "ms") {
			t.Errorf("row %q measured %q is not a millisecond rendering", row.Label, row.Measured)
		}
	}
}
