package main

// serve-read: read traffic through the coalescing server. An SBM
// graph is reordered once at 4:2:8 (core.Reorder), a hybrid-mode
// serve.Engine with a one-worker kernel pool adopts that permutation,
// two concurrent clients warm it up, and one closed-loop client sends
// fixed-size requests from serve.GenerateScript through Server.Submit.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/spmm"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// serveSizes sizes a serving workload's graph, engine and traffic.
type serveSizes struct {
	n, communities int
	degree         float64 // expected average degree
	homophily      float64 // share of a vertex's edges inside its community
	featureDim     int
	cacheRows      int
	reqNodes       int // nodes per request
	scriptLen      int // requests per client script (replayed cyclically)
	warmup         int // untimed requests per client
	replay         int // requests per client replayed uncoalesced
}

func serveReadSizes(tiny bool) serveSizes {
	if tiny {
		return serveSizes{n: 512, communities: 8, degree: 10, homophily: 0.8, featureDim: 16,
			cacheRows: 64, reqNodes: 8, scriptLen: 200, warmup: 5, replay: 10}
	}
	return serveSizes{n: 8192, communities: 16, degree: 15, homophily: 0.8, featureDim: 64,
		cacheRows: 1024, reqNodes: 16, scriptLen: 8192, warmup: 50, replay: 100}
}

// sbm draws the workload's community graph.
func (s serveSizes) sbm(seed int64) *graph.Graph {
	size := s.n / s.communities
	sizes := make([]int, s.communities)
	for i := range sizes {
		sizes[i] = size
	}
	pIn := s.degree * s.homophily / float64(size-1)
	pOut := s.degree * (1 - s.homophily) / float64(s.n-size)
	g, _ := graph.SBM(sizes, pIn, pOut, seed)
	return g
}

// served is one answered request.
type served struct {
	req  *serve.Request
	idx  int // index in the client's script
	resp *serve.Response
}

// checkResponse compares a response with the reference propagation.
func checkResponse(s served, ref *propagation, head *dense.Matrix) error {
	r := s.resp
	switch s.req.Op {
	case serve.OpClassify:
		if len(r.Classes) != len(s.req.Nodes) {
			return fmt.Errorf("classify: %d classes for %d nodes", len(r.Classes), len(s.req.Nodes))
		}
		for j, v := range s.req.Nodes {
			if err := ref.checkClass(v, r.Classes[j], head); err != nil {
				return err
			}
		}
	default:
		if len(r.Rows) != len(s.req.Nodes) {
			return fmt.Errorf("embed: %d rows for %d nodes", len(r.Rows), len(s.req.Nodes))
		}
		for j, v := range s.req.Nodes {
			if err := ref.checkRow(v, r.Rows[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameResponse compares two responses bit for bit.
func sameResponse(a, b *serve.Response) bool {
	if a.Op != b.Op || len(a.Rows) != len(b.Rows) || len(a.Classes) != len(b.Classes) {
		return false
	}
	for i := range a.Rows {
		if !sameBits(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] {
			return false
		}
	}
	return true
}

// counterDelta reads a volatile counter's growth between two snapshots.
func counterDelta(a, b *obs.Snapshot, name string) float64 {
	return float64(b.Volatile[name] - a.Volatile[name])
}

func runServeRead(cfg runConfig) (*result, error) {
	sz := serveReadSizes(cfg.tiny)
	const clients = 2
	g := sz.sbm(cfg.seed)
	script, err := serve.GenerateScript(serve.ScriptConfig{
		Seed: cfg.seed, Clients: clients, Requests: sz.scriptLen, N: sz.n,
		MinNodes: sz.reqNodes, MaxNodes: sz.reqNodes, ClassifyEvery: 4,
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	tr := newTracer(cfg.trace)
	p := pattern.New(4, 2, 8)
	var reg *obs.Registry
	if cfg.trace {
		reg = obs.NewRegistry()
	}

	// Set-up: graph in -> first query answered.
	t0 := time.Now()
	var ro *core.Result
	tr.time("core.reorder", func() { ro, err = core.Reorder(g.ToBitMatrix(), p, core.Options{}) })
	if err != nil {
		return nil, err
	}
	ecfg := serve.EngineConfig{Pattern: p, FeatureDim: sz.featureDim, CacheRows: sz.cacheRows, Seed: cfg.seed, Perm: ro.Perm, Workers: 1}
	var eng *serve.Engine
	tr.time("serve.engine_build", func() {
		c := ecfg
		c.Obs = reg
		eng, err = serve.NewEngine(g, c)
	})
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(eng, serve.ServerConfig{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	firstResp, err := srv.Submit(script[0][0])
	if err != nil {
		return nil, fmt.Errorf("first query: %w", err)
	}
	setup := time.Since(t0)
	answers := make([][]served, clients)
	answers[0] = append(answers[0], served{req: script[0][0], idx: 0, resp: firstResp})

	// Warm-up: both clients fill the caches, untimed; their concurrent
	// requests are coalesced into shared batches.
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 1; i <= sz.warmup; i++ {
				resp, err := srv.Submit(script[c][i])
				if err != nil {
					errs[c] = err
					return
				}
				answers[c] = append(answers[c], served{req: script[c][i], idx: i, resp: resp})
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	heap := liveHeapMB()

	// Measured phase: one closed-loop client (script 0) until the
	// deadline. A second concurrent client made the latency follow the
	// host's load on two CPUs; the concurrent warm-up above is what
	// exercises coalescing.
	var snap0 *obs.Snapshot
	if reg != nil {
		snap0 = reg.Snapshot()
	}
	var lats []float64
	mem0 := readMem()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := sz.warmup + 1; time.Now().Before(deadline); i++ {
		k := i % sz.scriptLen
		req := script[0][k]
		t := time.Now()
		resp, err := srv.Submit(req)
		lat := time.Since(t)
		if err != nil {
			res.failed++
			continue
		}
		lats = append(lats, ms(lat))
		answers[0] = append(answers[0], served{req: req, idx: k, resp: resp})
	}
	mem1 := readMem()
	res.attempted = len(lats) + res.failed

	ar := csr.SymNormalized(mustPermute(g, ro.Perm))
	speedup, err := cycleModelSpeedup(ar, p, sz.featureDim)
	if err != nil {
		return nil, err
	}

	// The unit operation is one query, submit to response.
	add := func(name, unit string, v float64) { res.e2e(cfg.trace, name, unit, v) }
	add("setup_s", "s", setup.Seconds())
	opLatencyMetrics(add, lats)
	add("model_speedup", "x", speedup)
	add("live_heap_mb", "MB", heap)

	// Output checks: every answer against the float64 reference.
	ref := refFromGraph(g).propagate(seededFeatures(sz.n, sz.featureDim, cfg.seed).Data, sz.featureDim, 2, nil)
	head := seededFeatures(sz.featureDim, 8, cfg.seed+1)
	for c := range answers {
		for _, a := range answers[c] {
			if err := checkResponse(a, ref, head); err != nil {
				res.fail("client %d request %d: %v", c, a.idx, err)
				break
			}
		}
	}
	// Coalescing is invisible: the first requests of each script,
	// replayed one per batch on a second engine, return the bits every
	// live (possibly coalesced) answer to them carried.
	twin, err := serve.NewEngine(g, ecfg)
	if err != nil {
		return nil, err
	}
	for c := range answers {
		alone := make(map[int]*serve.Response)
		for i := 0; i < sz.replay; i++ {
			var r []*serve.Response
			tr.time("serve.batch", func() { r = twin.ServeBatch([]*serve.Request{script[c][i]}, false) })
			alone[i] = r[0]
		}
		for _, a := range answers[c] {
			if want, ok := alone[a.idx]; ok && !sameResponse(a.resp, want) {
				res.fail("client %d request %d: coalesced answer differs in bits from the uncoalesced one", c, a.idx)
			}
		}
	}

	if cfg.trace {
		m := res.metrics
		snap1 := reg.Snapshot()
		queries := float64(len(lats))
		var comp *venom.Matrix
		var resid *csr.Matrix
		tr.time("venom.split", func() { comp, resid, err = venom.SplitToConform(ar, p) })
		if err != nil {
			return nil, err
		}
		timeKernels(res, tr, comp, resid, ar, sz.featureDim, cfg.seed)
		serveCounters(res, snap0, snap1, queries)
		m.add("core.reorder_s", "s", tr.medianMs("core.reorder")/1e3)
		m.add("core.final_pscore", "count", float64(ro.FinalPScore))
		m.add("core.final_mbscore", "count", float64(ro.FinalMBScore))
		m.add("venom.split_ms", "ms", tr.medianMs("venom.split"))
		m.add("venom.residual_nnz", "count", float64(resid.NNZ()))
		m.add("serve.engine_build_s", "s", tr.medianMs("serve.engine_build")/1e3)
		m.add("serve.batch_ms", "ms", tr.medianMs("serve.batch"))
		m.add("serve.read_p50_ms", "ms", median(lats))
		m.add("runtime.alloc_kb_per_op", "KB", float64(mem1.totalAlloc-mem0.totalAlloc)/1024/queries)
		m.add("runtime.gc_pause_ms", "ms", float64(mem1.pauseNs-mem0.pauseNs)/1e6)
	}
	return res, nil
}

// cycleModelSpeedup is the cycle model's CSR cycles over hybrid SPTC
// cycles for one SpMM of ar at the given width. It is a model figure,
// not a wall-clock one.
func cycleModelSpeedup(ar *csr.Matrix, p pattern.VNM, width int) (float64, error) {
	cm := sptc.DefaultCostModel()
	plan, err := sptc.NewPlan(ar, p, cm, true)
	if err != nil {
		return 0, err
	}
	return cm.CSRSpMMCycles(ar.NNZ(), ar.N, width) / plan.EstimateCycles(width), nil
}

// timeKernels times five full-operand hybrid and CSR SpMM calls of w
// at the given width and adds their medians.
func timeKernels(res *result, tr *tracer, comp *venom.Matrix, resid, w *csr.Matrix, width int, seed int64) {
	b := dense.NewMatrix(w.N, width)
	b.Randomize(1, seed+3)
	pool := sched.Default()
	for i := 0; i < 5; i++ {
		tr.time("spmm.hybrid", func() { spmm.HybridPool(pool, comp, resid, b) })
		tr.time("spmm.csr", func() { spmm.CSRPool(pool, w, b) })
	}
	res.metrics.add("spmm.hybrid_ms", "ms", tr.medianMs("spmm.hybrid"))
	res.metrics.add("spmm.csr_ms", "ms", tr.medianMs("spmm.csr"))
}

// serveCounters adds the engine's obs counters between two snapshots:
// requests per coalesced batch, row-cache hit ratio and shard
// dispatches per query.
func serveCounters(res *result, snap0, snap1 *obs.Snapshot, queries float64) {
	bq := snap1.VolatileHists["serve/batch_requests"]
	bq0 := snap0.VolatileHists["serve/batch_requests"]
	hit := counterDelta(snap0, snap1, "serve/cache/hit")
	miss := counterDelta(snap0, snap1, "serve/cache/miss")
	disp := counterDelta(snap0, snap1, "serve/dispatch/hybrid") + counterDelta(snap0, snap1, "serve/dispatch/csr") +
		counterDelta(snap0, snap1, "serve/dispatch/planned")
	m := res.metrics
	m.add("serve.batch_requests_mean", "count", float64(bq.Sum-bq0.Sum)/float64(bq.Count-bq0.Count))
	m.add("serve.cache_hit_ratio", "ratio", hit/(hit+miss))
	m.add("serve.dispatches_per_query", "count", disp/queries)
}

// mustPermute renumbers g by a permutation the program returned; the
// permutation was already accepted by the engine, so failure here is
// a bug in the benchmark.
func mustPermute(g *graph.Graph, perm []int) *graph.Graph {
	rg, err := g.ApplyPermutation(perm)
	if err != nil {
		panic(err)
	}
	return rg
}
