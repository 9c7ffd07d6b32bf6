package serve

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// testGraph is the shared small operand (reorder stays fast).
func testGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	return graph.ErdosRenyi(n, 8/float64(n), 42)
}

// serveAll answers every scripted request one-at-a-time straight
// through the engine — the serial reference batched paths are
// compared against.
func serveAll(e *Engine, reqs []*Request) []*Response {
	out := make([]*Response, len(reqs))
	for i, r := range reqs {
		out[i] = e.ServeBatch([]*Request{r}, false)[0]
	}
	return out
}

func bitEqualResponses(a, b []*Response) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Checksum() != b[i].Checksum() {
			return false
		}
	}
	return true
}

func flatScript(t testing.TB, cfg ScriptConfig) []*Request {
	t.Helper()
	clients, err := GenerateScript(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var flat []*Request
	for _, c := range clients {
		flat = append(flat, c...)
	}
	return flat
}

func TestEngineDeterministicAcrossInstances(t *testing.T) {
	g := testGraph(t, 256)
	cfg := EngineConfig{Seed: 7, ShardRows: 64, CacheRows: 32}
	a, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := flatScript(t, ScriptConfig{Seed: 1, Clients: 2, Requests: 20, N: 256, ClassifyEvery: 3})
	if !bitEqualResponses(serveAll(a, reqs), serveAll(b, reqs)) {
		t.Fatal("two engines with identical config disagree")
	}
}

func TestBatchingDoesNotChangeBits(t *testing.T) {
	g := testGraph(t, 256)
	for _, mode := range []Mode{ModeCSR, ModeHybrid} {
		cfg := EngineConfig{Seed: 7, ShardRows: 64, CacheRows: 16, Mode: mode}
		a, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reqs := flatScript(t, ScriptConfig{Seed: 2, Clients: 1, Requests: 16, N: 256, ClassifyEvery: 4})
		ref := serveAll(a, reqs)
		b, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One giant coalesced batch must answer every request with the
		// same bits as one-at-a-time evaluation.
		got := b.ServeBatch(reqs, false)
		if !bitEqualResponses(ref, got) {
			t.Fatalf("mode %s: coalesced batch changed response bits", mode)
		}
	}
}

func TestCacheConfigurationsAgree(t *testing.T) {
	g := testGraph(t, 256)
	reqs := flatScript(t, ScriptConfig{Seed: 3, Clients: 2, Requests: 15, N: 256})
	var ref []*Response
	for _, cacheRows := range []int{0, 8, 64, 1 << 20} {
		e, err := NewEngine(g, EngineConfig{Seed: 7, ShardRows: 64, CacheRows: cacheRows, ShardCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := serveAll(e, reqs)
		if ref == nil {
			ref = got
			continue
		}
		if !bitEqualResponses(ref, got) {
			t.Fatalf("cacheRows=%d changed response bits", cacheRows)
		}
	}
}

func TestShardEvictionRebuildsBitIdentical(t *testing.T) {
	g := testGraph(t, 256)
	reqs := flatScript(t, ScriptConfig{Seed: 4, Clients: 1, Requests: 30, N: 256})
	full, err := NewEngine(g, EngineConfig{Seed: 7, ShardRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	churn, err := NewEngine(g, EngineConfig{Seed: 7, ShardRows: 64, ShardCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqualResponses(serveAll(full, reqs), serveAll(churn, reqs)) {
		t.Fatal("shard handle eviction churn changed response bits")
	}
}

func TestDegradedGatherPath(t *testing.T) {
	g := testGraph(t, 256)
	req := &Request{Op: OpEmbed, Nodes: []int{0, 5, 100, 255}}
	// ModeCSR: the gather path accumulates each row in the identical
	// operand order, so degraded responses are bit-identical.
	e, err := NewEngine(g, EngineConfig{Seed: 7, ShardRows: 64, Mode: ModeCSR})
	if err != nil {
		t.Fatal(err)
	}
	normal := e.ServeBatch([]*Request{req}, false)[0]
	degraded := e.ServeBatch([]*Request{req}, true)[0]
	if normal.Checksum() != degraded.Checksum() {
		t.Fatal("ModeCSR degraded path changed bits")
	}
	// ModeHybrid: summation order differs; tolerance-bounded only.
	h, err := NewEngine(g, EngineConfig{Seed: 7, ShardRows: 64, Mode: ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	hn := h.ServeBatch([]*Request{req}, false)[0]
	hd := h.ServeBatch([]*Request{req}, true)[0]
	for i := range hn.Rows {
		for j := range hn.Rows[i] {
			d := math.Abs(float64(hn.Rows[i][j] - hd.Rows[i][j]))
			if d > 1e-3 {
				t.Fatalf("hybrid degraded row diverged by %v at (%d,%d)", d, i, j)
			}
		}
	}
}

func TestEngineConfigErrors(t *testing.T) {
	g := testGraph(t, 64)
	bad := []EngineConfig{
		{CacheRows: -1},
		{ShardCap: -1},
		{Hops: -1},
		{Mode: Mode("turbo")},
		{Mode: ModeAuto}, // no calibration table
		{Perm: []int{0, 1}},
	}
	for i, cfg := range bad {
		if _, err := NewEngine(g, cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("config %d: err = %v, want ErrConfig", i, err)
		}
	}
}

func TestValidateRequestRange(t *testing.T) {
	g := testGraph(t, 64)
	e, err := NewEngine(g, EngineConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ValidateRequest(&Request{Op: OpEmbed, Nodes: []int{63}}); err != nil {
		t.Fatalf("in-range request rejected: %v", err)
	}
	if err := e.ValidateRequest(&Request{Op: OpEmbed, Nodes: []int{64}}); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("out-of-range err = %v", err)
	}
}

func TestPrecomputedPermMatchesReorder(t *testing.T) {
	g := testGraph(t, 128)
	a, err := NewEngine(g, EngineConfig{Seed: 7, ShardRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(g, EngineConfig{Seed: 7, ShardRows: 64, Perm: a.Perm()})
	if err != nil {
		t.Fatal(err)
	}
	reqs := flatScript(t, ScriptConfig{Seed: 5, Clients: 1, Requests: 10, N: 128, ClassifyEvery: 2})
	if !bitEqualResponses(serveAll(a, reqs), serveAll(b, reqs)) {
		t.Fatal("precomputed-perm engine disagrees with reordering engine")
	}
}

// TestServeAllocFlatInGraphSize: with warm shards and no row cache, a
// single-request ServeBatch allocates for the bands it dispatches and
// the rows it returns, nothing sized by the graph. Allocation is
// deterministic here (one worker, identity permutation), so a 1.5x
// bound across a 16x range of n is tight.
func TestServeAllocFlatInGraphSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 32k-node engine")
	}
	req := &Request{Op: OpEmbed, Nodes: []int{3, 100, 300, 700, 1500}}
	bytesPerBatch := func(n int) uint64 {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		e, err := NewEngine(graph.ErdosRenyi(n, 8/float64(n), 42), EngineConfig{
			Seed: 7, ShardRows: 256, CacheRows: 0, Workers: 1, Perm: perm,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.ServeBatch([]*Request{req}, false) // build the shards, grow the arena
		best := uint64(math.MaxUint64)
		for rep := 0; rep < 5; rep++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			e.ServeBatch([]*Request{req}, false)
			runtime.ReadMemStats(&m1)
			best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		return best
	}
	small := bytesPerBatch(2048)
	for _, n := range []int{8192, 32768} {
		large := bytesPerBatch(n)
		t.Logf("n=%d: %d B per batch (n=2048: %d B)", n, large, small)
		if ratio := float64(large) / float64(small); ratio > 1.5 {
			t.Fatalf("ServeBatch allocates %d B at n=%d vs %d B at n=2048 (%.2fx > 1.5x)", large, n, small, ratio)
		}
	}
}
