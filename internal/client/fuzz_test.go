package client

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/lease"
	"repro/internal/netsim"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// FuzzCacheKey fuzzes the name-cache key derivation: the routine that
// decides which per-prefix cache entry a CSname hits (and which entry a
// rebind invalidates). The key must exist exactly for prefixed names,
// be the parsed prefix verbatim, and agree with the prefix syntax's own
// parser — a key mismatch would make the cache serve another prefix's
// binding.
// FuzzNegativeCacheKey fuzzes the negative-cache coherence key: a failed
// lookup of any prefixed name stores its NotFound under the parsed
// prefix, and a later define of that prefix invalidates holders under
// the server's add-key (the bracket-trimmed CSname). For every definable
// prefix the two keys must coincide — a mismatch would strand a negative
// entry past the define, serving NotFound for a name that now exists
// until the lease lapses.
func FuzzNegativeCacheKey(f *testing.F) {
	f.Add("[nosuch]x")
	f.Add("[home]welcome.txt")
	f.Add("[a[]x")
	f.Add("[ [] ]gap")
	f.Add("[\x00]nul")
	f.Add("[b]")
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	f.Fuzz(func(t *testing.T, name string) {
		pfx, _, err := cacheKey(name)
		if err != nil {
			return // unprefixed or malformed: never reaches the lease cache
		}
		// The server's define path computes its invalidation key by
		// trimming the bracket syntax from the CSname (prefix.handleAdd),
		// and rejects keys containing "[]/" — those prefixes can never be
		// defined, so their negative entries are bounded by expiry alone.
		addKey := strings.Trim(prefix.Quote(pfx), "[]")
		if strings.ContainsAny(pfx, "[]/") {
			return
		}
		if addKey != pfx {
			t.Fatalf("define key %q diverges from cache key %q", addKey, pfx)
		}
		// And the callback path drops exactly that entry.
		lc := lease.NewCache(lease.NewMeter(k, "client", "fuzz"))
		lc.Store(pfx, lease.Entry{Negative: true})
		if !lc.Drop(addKey) {
			t.Fatalf("invalidation of %q stranded negative entry %q", addKey, pfx)
		}
	})
}

func FuzzCacheKey(f *testing.F) {
	f.Add("[home]welcome.txt")
	f.Add("[storage]/shared/archive/2026/paper.mss")
	f.Add("[bin]hello")
	f.Add("welcome.txt")
	f.Add("[unterminated")
	f.Add("[]empty")
	f.Add("[a][b]nested")
	f.Add("")
	f.Fuzz(func(t *testing.T, name string) {
		pfx, rest, err := cacheKey(name)
		if err != nil {
			if !errors.Is(err, proto.ErrBadArgs) {
				t.Fatalf("cacheKey error %v is not ErrBadArgs", err)
			}
			return
		}
		if !prefix.HasPrefix(name) {
			t.Fatalf("key %q derived for unprefixed name %q", pfx, name)
		}
		if pfx == "" || strings.ContainsRune(pfx, ']') {
			t.Fatalf("malformed key %q", pfx)
		}
		if rest <= 0 || rest > len(name) {
			t.Fatalf("rest %d out of range for %q", rest, name)
		}
		// A cache miss sends the bare prefix sliced from the name: it must
		// be the quoted key byte for byte.
		if bare := name[:len(pfx)+2]; bare != prefix.Quote(pfx) {
			t.Fatalf("bare prefix %q of %q is not the quoted key %q", bare, name, prefix.Quote(pfx))
		}
		// The key is the prefix verbatim: the name re-assembled from its
		// quoted key must produce the same key and the same remainder.
		requoted := prefix.Quote(pfx) + name[rest:]
		p2, r2, err := cacheKey(requoted)
		if err != nil || p2 != pfx {
			t.Fatalf("re-quoted name parses to (%q, %v), want key %q", p2, err, pfx)
		}
		if requoted[r2:] != name[rest:] {
			t.Fatalf("remainder changed: %q vs %q", requoted[r2:], name[rest:])
		}
		// And the parser the prefix server itself uses must agree.
		p3, r3, err := prefix.Parse(name, 0)
		if err != nil || p3 != pfx || r3 != rest {
			t.Fatalf("cacheKey (%q, %d) disagrees with prefix.Parse (%q, %d, %v)", pfx, rest, p3, r3, err)
		}
	})
}
