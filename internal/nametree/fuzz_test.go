package nametree

import (
	"sort"
	"strings"
	"testing"
)

// FuzzNametreeLookup feeds arbitrary key material (seeded from the
// client cacheKey corpus — bracketed V-System context names) through
// insert/lookup/delete and cross-checks every answer against a plain
// map. The input is split into up to 300 keys by splitKeys; every prefix
// of every key is used as a lookup probe so the descent is exercised at
// each divergence point. Two seeds are the records the arena encodes past
// one-byte fields: a 100,000-byte label and a node with all 256 children.
// The rest are ranges of shortRange-1, shortRange and shortRange+1 keys
// under one common prefix, with and without the key that is the prefix,
// and with that key repeated: both of Load's sorts, and its refusal from
// each.
func FuzzNametreeLookup(f *testing.F) {
	f.Add("[storage]/shared/archive/2026/paper.mss")
	f.Add("[]x")
	f.Add("[home]welcome.txt")
	f.Add("[a][b]nested")
	f.Add("[unterminated")
	f.Add("a|ab|abc|b")
	f.Add("[home]|[home]sub|[h")
	long := strings.Repeat("x", 100_000)
	f.Add(long + "|" + long + "y|x")
	var wide strings.Builder
	for b := 0; b < 256; b++ {
		if b == '|' || b == '\\' {
			wide.WriteByte('\\')
		}
		wide.WriteString(string([]byte{byte(b)}) + ".w|")
	}
	wide.WriteString(".")
	f.Add(wide.String())
	for _, n := range []int{shortRange - 1, shortRange, shortRange + 1} {
		f.Add(strings.Join(rangeKeys(n, false), "|"))
		keys := strings.Join(rangeKeys(n, true), "|")
		f.Add(keys)
		f.Add(keys + "|pre")
	}
	f.Fuzz(func(t *testing.T, input string) {
		keys := splitKeys(input)
		if len(keys) > 300 {
			keys = keys[:300]
		}
		tr := New[int]()
		ref := map[string]int{}
		for i, k := range keys {
			replaced := tr.Insert(k, i)
			if _, had := ref[k]; had != replaced {
				t.Fatalf("Insert(%q) replaced=%v, map had=%v", k, replaced, had)
			}
			ref[k] = i
			checkTree(t, tr)
		}
		// The same keys in one Load build the same tree, or — when one
		// repeats — nothing.
		bulk := New[int]()
		err := bulk.Load(keys, func(i int) int { return i })
		checkTree(t, bulk)
		switch {
		case len(ref) < len(keys):
			if err == nil || bulk.Len() != 0 {
				t.Fatalf("Load of repeated keys: err=%v, Len=%d", err, bulk.Len())
			}
		case err != nil:
			t.Fatalf("Load: %v", err)
		default:
			if w1, w2 := walkKeys(tr), walkKeys(bulk); strings.Join(w1, "|") != strings.Join(w2, "|") {
				t.Fatalf("Walk: Insert built %q, Load %q", w1, w2)
			}
			for _, k := range keys {
				_, _, s1 := tr.GetSteps(k)
				_, ok, s2 := bulk.GetSteps(k)
				if !ok || s1 != s2 {
					t.Fatalf("GetSteps(%q): %d steps after Insert, (%v, %d) after Load", k, s1, ok, s2)
				}
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len=%d, map %d", tr.Len(), len(ref))
		}
		for _, k := range keys {
			for cut := 0; cut <= len(k); cut++ {
				q := k[:cut]
				got, ok := tr.Get(q)
				want, wantOK := ref[q]
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("Get(%q) = (%d,%v), map (%d,%v)", q, got, ok, want, wantOK)
				}
			}
		}
		// Walk must visit the map's keys in sorted order.
		walked := walkKeys(tr)
		wantKeys := make([]string, 0, len(ref))
		for k := range ref {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		if len(walked) != len(wantKeys) {
			t.Fatalf("Walk visited %d, map has %d", len(walked), len(wantKeys))
		}
		for i := range walked {
			if walked[i] != wantKeys[i] {
				t.Fatalf("Walk[%d]=%q, want %q", i, walked[i], wantKeys[i])
			}
		}
		// Delete everything; the tree must drain to empty.
		for _, k := range keys {
			removed := tr.Delete(k)
			_, had := ref[k]
			if removed != had {
				t.Fatalf("Delete(%q)=%v, map had=%v", k, removed, had)
			}
			delete(ref, k)
			checkTree(t, tr)
		}
		if tr.Len() != 0 || tr.KeyBytes() != 0 {
			t.Fatalf("drained tree: Len=%d KeyBytes=%d", tr.Len(), tr.KeyBytes())
		}
	})
}

// splitKeys splits the fuzz input on '|'. A backslash takes the byte
// after it literally, so a key can hold any byte, '|' included.
func splitKeys(input string) []string {
	var keys []string
	var key []byte
	for i := 0; i < len(input); i++ {
		switch c := input[i]; {
		case c == '\\' && i+1 < len(input):
			i++
			key = append(key, input[i])
		case c == '|':
			keys = append(keys, string(key))
			key = key[:0]
		default:
			key = append(key, c)
		}
	}
	return append(keys, string(key))
}
