package serve

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// TestLRUDegenerateCapacity pins the newLRU contract for capacity
// <= 0: the cache is disabled — every get misses, every put is
// dropped without invoking onEvict, Len stays 0 — and nothing panics
// or grows without bound.
func TestLRUDegenerateCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1, -1 << 30} {
		evicted := 0
		c := newLRU[int](capacity)
		c.onEvict = func(int, int) { evicted++ }
		for i := 0; i < 1000; i++ {
			c.put(i%7, i) // refresh keys too: still dropped
			if _, ok := c.get(i % 7); ok {
				t.Fatalf("cap=%d: get hit on a disabled cache", capacity)
			}
		}
		if c.Len() != 0 {
			t.Fatalf("cap=%d: disabled cache grew to %d entries", capacity, c.Len())
		}
		if evicted != 0 {
			t.Fatalf("cap=%d: onEvict fired %d times on dropped puts", capacity, evicted)
		}
	}
}

// TestLRUEvictionOrder pins strict-recency eviction with onEvict
// observation at a tiny positive capacity.
func TestLRUEvictionOrder(t *testing.T) {
	var evicted []int
	c := newLRU[string](2)
	c.onEvict = func(k int, _ string) { evicted = append(evicted, k) }
	c.put(1, "a")
	c.put(2, "b")
	if _, ok := c.get(1); !ok { // promote 1; LRU is now 2
		t.Fatal("expected hit on 1")
	}
	c.put(3, "c") // evicts 2
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted %v, want [2]", evicted)
	}
	if _, ok := c.get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	c.put(1, "a2") // refresh, no eviction
	if v, ok := c.get(1); !ok || v != "a2" {
		t.Fatalf("refresh lost: %q %v", v, ok)
	}
	if c.Len() != 2 || len(evicted) != 1 {
		t.Fatalf("len=%d evictions=%v", c.Len(), evicted)
	}
}

// TestTinyCacheRetainsRequestedRows is the regression for the
// band-fill churn defect: with CacheRows smaller than a shard band, a
// miss used to fill the whole band through the cache, evicting every
// previously hot row and retaining only the band's tail — rows nobody
// requested — so a tiny cache could never produce a hit for repeated
// traffic. After the fix, a repeated request hits. This test fails
// before the fix with zero cache hits.
func TestTinyCacheRetainsRequestedRows(t *testing.T) {
	g, err := graph.NewFromEdges(128, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := NewEngine(g, EngineConfig{
		Seed: 7, ShardRows: 64, CacheRows: 2, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Op: OpEmbed, Nodes: []int{3, 4}}
	if err := e.ValidateRequest(req); err != nil {
		t.Fatal(err)
	}
	first := e.ServeBatch([]*Request{req}, false)
	hitsBefore := reg.Snapshot().Volatile["serve/cache/hit"]
	second := e.ServeBatch([]*Request{req}, false)
	hits := reg.Snapshot().Volatile["serve/cache/hit"] - hitsBefore
	if hits != 2 {
		t.Fatalf("repeat request got %d cache hits, want 2 (tiny cache retained band tail instead of requested rows)", hits)
	}
	// Caching is invisible in response bits.
	for i := range first[0].Rows {
		for j := range first[0].Rows[i] {
			if first[0].Rows[i][j] != second[0].Rows[i][j] {
				t.Fatal("cached response differs from computed response")
			}
		}
	}
}

// TestHotSetStaysCached: on the 80/20 script, once warm, a row cache
// that holds the hot set twice over serves most rows. The cache holds
// only two 64-row bands, so admitting whole dispatched bands would
// churn the hot set out.
func TestHotSetStaysCached(t *testing.T) {
	const n = 1024 // hot set: n/16 = 64 original vertices
	reg := obs.NewRegistry()
	e, err := NewEngine(testGraph(t, n), EngineConfig{
		Seed: 7, ShardRows: 64, CacheRows: 128, Workers: 1, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := flatScript(t, ScriptConfig{Seed: 11, Clients: 1, Requests: 300, N: n, MinNodes: 16, MaxNodes: 16})
	for _, r := range reqs[:100] {
		e.ServeBatch([]*Request{r}, false)
	}
	s0 := reg.Snapshot()
	for _, r := range reqs[100:] {
		e.ServeBatch([]*Request{r}, false)
	}
	s1 := reg.Snapshot()
	hit := float64(s1.Volatile["serve/cache/hit"] - s0.Volatile["serve/cache/hit"])
	miss := float64(s1.Volatile["serve/cache/miss"] - s0.Volatile["serve/cache/miss"])
	if ratio := hit / (hit + miss); ratio < 0.7 {
		t.Fatalf("warm hit ratio %.3f < 0.7 (%v hits, %v misses)", ratio, hit, miss)
	}
}
