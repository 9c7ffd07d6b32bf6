package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/serve"
)

// This file is the serving benchmark behind `sogre-bench -suite
// serve` (BENCH_serve.json): closed-loop seeded clients drive the
// inference server over loopback HTTP and each row records
// request-latency percentiles, saturation throughput, and the
// realized batch-size distribution, at several client counts, with
// coalescing on ("batched") and forced off ("singleton",
// MaxBatchRequests=1). The row cache is disabled so the
// batched-vs-singleton delta isolates exactly the coalescer's
// shard-dispatch dedup — the quantity the serving layer exists to
// win.
//
// The per-dispatch rows time one band dispatch on graphs of N, 4N and
// 16N nodes at fixed ShardRows: the cost of answering a one-node request
// should follow the band it dispatches, not the graph it sits in.
//
// Reproducibility contract: for a fixed ServeBenchConfig the rows'
// requests/rows/checksum fields are byte-identical across runs and
// across the batched/singleton pair (responses are pure functions of
// the request multiset); CanonicalServe zeroes the latency,
// throughput, and batch-distribution fields, which depend on
// scheduling. RunServe errors out if the deterministic fields drift
// between repeats — nondeterminism is a bug report, not noise.

// ServeSchema identifies the serving-suite JSON layout.
const ServeSchema = "sogre-bench-serve/v1"

// ServeBenchConfig sizes a serving benchmark run.
type ServeBenchConfig struct {
	Seed      int64
	Family    string
	N         int
	Degree    float64
	ShardRows int
	Mode      serve.Mode
	Pattern   pattern.VNM
	Clients   []int
	Requests  int // per client, closed loop
	MinNodes  int // nodes per request lower bound
	MaxNodes  int // nodes per request upper bound
	Classify  int // every k-th request classifies; 0 = embed only
	Repeats   int // per row; best (lowest p50) timing kept
	// Window is the coalescing window the batched rows run with
	// (singleton rows always run with Window 0). Zero relies on
	// backpressure batching alone, which over HTTP already forms
	// healthy batches; a nonzero window trades a latency floor for
	// fuller ones.
	Window time.Duration
}

// DefaultServeConfig returns the checked-in serving workload: large
// enough that shard dispatches dominate, small enough for seconds on
// one core.
func DefaultServeConfig() ServeBenchConfig {
	return ServeBenchConfig{
		Seed:      20250806,
		Family:    "er",
		N:         2048,
		Degree:    8,
		ShardRows: 256,
		Mode:      serve.ModeHybrid,
		Pattern:   pattern.New(4, 2, 8),
		Clients:   []int{1, 2, 4, 8},
		Requests:  40,
		MinNodes:  16,
		MaxNodes:  16,
		Classify:  4,
		Repeats:   3,
	}
}

// Validate rejects configurations that cannot produce a suite.
func (c ServeBenchConfig) Validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("bench: serve N %d must be >= 1", c.N)
	case len(c.Clients) == 0:
		return fmt.Errorf("bench: serve Clients must be nonempty")
	case c.Requests < 1:
		return fmt.Errorf("bench: serve Requests %d must be >= 1", c.Requests)
	case c.Repeats < 1:
		return fmt.Errorf("bench: serve Repeats %d must be >= 1", c.Repeats)
	}
	for _, n := range c.Clients {
		if n < 1 {
			return fmt.Errorf("bench: serve client count %d must be >= 1", n)
		}
	}
	return nil
}

// ServeResult is one (clients, coalesce-mode) row. The first block is
// deterministic; the timing block is zeroed by CanonicalServe.
type ServeResult struct {
	Clients  int    `json:"clients"`
	Coalesce string `json:"coalesce"` // "batched" | "singleton"
	Requests int    `json:"requests"` // total across clients
	Rows     int    `json:"rows"`     // total node rows served
	// Checksum is the order-independent sum of per-response FNV
	// checksums, in hex — the bit-level fingerprint of the response
	// set. Identical across the batched/singleton pair and across
	// runs; this is the suite's embedded correctness claim.
	Checksum   string `json:"checksum"`
	GoMaxProcs int    `json:"gomaxprocs"`

	P50Ns         float64 `json:"p50_ns"`
	P99Ns         float64 `json:"p99_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// BatchMean is the realized mean requests-per-dispatched-batch
	// (from the serve/batch_requests histogram): 1.0 in singleton
	// rows, growing with load in batched ones.
	BatchMean float64 `json:"batch_mean"`
	// BatchMax is the largest observed batch (requests), bucket-
	// resolution from the histogram.
	BatchMax int64 `json:"batch_max"`
}

// ServeDispatchResult is one per-dispatch row: one-node ServeBatch
// calls on an n-node graph, one per band in band order, each exactly
// one band dispatch (row cache off, every shard handle already built).
// The graph keeps its generated numbering: the row measures what a
// dispatch costs against graph size, not how well the graph reorders.
// MedianNs and IQRNs are zeroed by CanonicalServe.
type ServeDispatchResult struct {
	N          int `json:"n"`
	ShardRows  int `json:"shard_rows"`
	Dispatches int `json:"dispatches"` // timed one-node batches
	// Checksum is the sum of the timed responses' checksums, in hex.
	Checksum string  `json:"checksum"`
	MedianNs float64 `json:"median_ns"`
	IQRNs    float64 `json:"iqr_ns"`
}

// ServeSuite is the full serving benchmark output.
type ServeSuite struct {
	Schema     string        `json:"schema"`
	Seed       int64         `json:"seed"`
	Family     string        `json:"family"`
	N          int           `json:"n"`
	ShardRows  int           `json:"shard_rows"`
	Mode       string        `json:"mode"`
	Pattern    string        `json:"pattern"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Results    []ServeResult `json:"results"`
	// Dispatch holds the per-dispatch rows at N, 4N and 16N nodes.
	Dispatch []ServeDispatchResult `json:"dispatch"`
}

// JSON renders the suite as indented JSON with a trailing newline.
func (s *ServeSuite) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// serveRun is one timed drive of a fresh engine+server; it returns
// the deterministic fingerprint and the timing observations.
type serveRun struct {
	rows     int
	checksum uint64
	p50, p99 float64
	rps      float64
	mean     float64
	max      int64
}

// driveServe boots a loopback HTTP server (the surface sogre-serve
// ships) and drives it with closed-loop HTTP clients. In-process
// Submit is deliberately NOT used for timing: on a single core the
// done-channel wakeup puts the dispatcher in the scheduler's runnext
// slot, which rotates clients so perfectly that the singleton queue
// never builds and its p50 collapses to bare exec — an artifact real
// network serving does not have. The whole script runs once untimed
// (warming shard compression) before the measured pass.
func driveServe(g *serveGraph, cfg ServeBenchConfig, clients int, singleton bool) (*serveRun, error) {
	reg := obs.NewRegistry()
	eng, err := serve.NewEngine(g.g, serve.EngineConfig{
		Pattern:   cfg.Pattern,
		Seed:      cfg.Seed,
		ShardRows: cfg.ShardRows,
		Mode:      cfg.Mode,
		CacheRows: 0, // isolate coalescing dedup; no row-cache assist
		Perm:      g.perm,
		Obs:       reg,
	})
	if err != nil {
		return nil, err
	}
	scfg := serve.ServerConfig{Window: cfg.Window}
	if singleton {
		scfg.MaxBatchRequests = 1
		scfg.Window = 0
	}
	srv, err := serve.NewServer(eng, scfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String() + "/v1/query"
	hc := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: clients + 2, MaxIdleConnsPerHost: clients + 2},
	}
	defer hc.CloseIdleConnections()

	script, err := serve.GenerateScript(serve.ScriptConfig{
		Seed: cfg.Seed, Clients: clients, Requests: cfg.Requests,
		N: cfg.N, MinNodes: cfg.MinNodes, MaxNodes: cfg.MaxNodes,
		ClassifyEvery: cfg.Classify,
	})
	if err != nil {
		return nil, err
	}

	post := func(r *serve.Request) (*serve.Response, error) {
		resp, err := hc.Post(url, "application/json", bytes.NewReader(r.Render()))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		return serve.ParseResponse(body)
	}

	run := &serveRun{}
	lats := make([][]float64, clients)
	sums := make([]uint64, clients)
	rows := make([]int, clients)
	errs := make([]error, clients)
	pass := func(timed bool) (time.Duration, error) {
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, r := range script[c] {
					t0 := time.Now()
					resp, err := post(r)
					if err != nil {
						errs[c] = err
						return
					}
					if !timed {
						continue
					}
					lats[c] = append(lats[c], float64(time.Since(t0).Nanoseconds()))
					sums[c] += resp.Checksum()
					rows[c] += len(r.Nodes)
				}
			}(c)
		}
		wg.Wait()
		for c := 0; c < clients; c++ {
			if errs[c] != nil {
				return 0, fmt.Errorf("client %d: %w", c, errs[c])
			}
		}
		return time.Since(start), nil
	}
	if _, err := pass(false); err != nil { // warmup: shard compression, caches, conns
		return nil, err
	}
	wall, err := pass(true)
	if err != nil {
		return nil, err
	}
	var all []float64
	total := 0
	for c := 0; c < clients; c++ {
		all = append(all, lats[c]...)
		run.checksum += sums[c]
		run.rows += rows[c]
		total += len(script[c])
	}
	sort.Float64s(all)
	run.p50 = all[len(all)/2]
	p99i := (len(all) * 99) / 100
	if p99i >= len(all) {
		p99i = len(all) - 1
	}
	run.p99 = all[p99i]
	run.rps = float64(total) / wall.Seconds()
	s := reg.Snapshot()
	if h, ok := s.VolatileHists["serve/batch_requests"]; ok && h.Count > 0 {
		run.mean = float64(h.Sum) / float64(h.Count)
		// Highest non-empty bucket's upper edge approximates the max.
		for i := len(h.Buckets) - 1; i >= 0; i-- {
			if h.Buckets[i] != 0 {
				run.max = int64(1) << uint(i)
				break
			}
		}
	}
	return run, nil
}

type serveGraph struct {
	g    *graph.Graph
	perm []int
}

// RunServe executes the serving suite: for every client count, one
// batched row and one singleton row, each best-of-Repeats by p50. The
// reordering is computed once and shared — the permutation is
// deterministic, so this is a speedup, not a weakening.
func RunServe(cfg ServeBenchConfig) (*ServeSuite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := datasets.Family(cfg.Family, cfg.N, cfg.Degree, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: serve graph: %w", err)
	}
	seed, err := serve.NewEngine(g, serve.EngineConfig{
		Pattern: cfg.Pattern, Seed: cfg.Seed, ShardRows: cfg.ShardRows, Mode: cfg.Mode,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: serve engine: %w", err)
	}
	sg := &serveGraph{g: g, perm: seed.Perm()}

	s := &ServeSuite{
		Schema:     ServeSchema,
		Seed:       cfg.Seed,
		Family:     cfg.Family,
		N:          cfg.N,
		ShardRows:  cfg.ShardRows,
		Mode:       string(seed.Mode()),
		Pattern:    cfg.Pattern.String(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, clients := range cfg.Clients {
		for _, singleton := range []bool{false, true} {
			var best *serveRun
			for r := 0; r < cfg.Repeats; r++ {
				run, err := driveServe(sg, cfg, clients, singleton)
				if err != nil {
					return nil, fmt.Errorf("bench: serve clients=%d singleton=%v: %w", clients, singleton, err)
				}
				if best == nil {
					best = run
				} else {
					if run.checksum != best.checksum || run.rows != best.rows {
						return nil, fmt.Errorf("bench: serve clients=%d singleton=%v: deterministic fields drifted across repeats (checksum %x vs %x)",
							clients, singleton, run.checksum, best.checksum)
					}
					if run.p50 < best.p50 {
						best = run
					}
				}
			}
			mode := "batched"
			if singleton {
				mode = "singleton"
			}
			s.Results = append(s.Results, ServeResult{
				Clients:       clients,
				Coalesce:      mode,
				Requests:      clients * cfg.Requests,
				Rows:          best.rows,
				Checksum:      fmt.Sprintf("%016x", best.checksum),
				GoMaxProcs:    runtime.GOMAXPROCS(0),
				P50Ns:         best.p50,
				P99Ns:         best.p99,
				ThroughputRPS: best.rps,
				BatchMean:     best.mean,
				BatchMax:      best.max,
			})
		}
	}
	for _, n := range []int{cfg.N, 4 * cfg.N, 16 * cfg.N} {
		row, err := benchDispatch(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("bench: serve dispatch n=%d: %w", n, err)
		}
		s.Dispatch = append(s.Dispatch, *row)
	}
	// The batched/singleton pair must fingerprint identically — the
	// coalescer's bit-purity claim, re-checked at bench time.
	for i := 0; i+1 < len(s.Results); i += 2 {
		if s.Results[i].Checksum != s.Results[i+1].Checksum {
			return nil, fmt.Errorf("bench: serve clients=%d: batched checksum %s != singleton %s",
				s.Results[i].Clients, s.Results[i].Checksum, s.Results[i+1].Checksum)
		}
	}
	return s, nil
}

// benchDispatch measures one per-dispatch row: an untimed pass over
// every band builds the shard handles, then Repeats timed passes each
// send one one-node request per band.
func benchDispatch(cfg ServeBenchConfig, n int) (*ServeDispatchResult, error) {
	g, err := datasets.Family(cfg.Family, n, cfg.Degree, cfg.Seed)
	if err != nil {
		return nil, err
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	eng, err := serve.NewEngine(g, serve.EngineConfig{
		Pattern: cfg.Pattern, Seed: cfg.Seed, ShardRows: cfg.ShardRows, Mode: cfg.Mode, Perm: perm,
	})
	if err != nil {
		return nil, err
	}
	rows := eng.ShardRows()
	var reqs []*serve.Request
	for lo := 0; lo < n; lo += rows {
		reqs = append(reqs, &serve.Request{Op: serve.OpEmbed, Nodes: []int{lo}})
	}
	for _, r := range reqs {
		eng.ServeBatch([]*serve.Request{r}, false)
	}
	var lats []float64
	var sum uint64
	for pass := 0; pass < cfg.Repeats; pass++ {
		for _, r := range reqs {
			t0 := time.Now()
			resp := eng.ServeBatch([]*serve.Request{r}, false)[0]
			lats = append(lats, float64(time.Since(t0).Nanoseconds()))
			sum += resp.Checksum()
		}
	}
	sort.Float64s(lats)
	return &ServeDispatchResult{
		N: n, ShardRows: rows, Dispatches: len(lats),
		Checksum: fmt.Sprintf("%016x", sum),
		MedianNs: lats[len(lats)/2],
		IQRNs:    lats[len(lats)*3/4] - lats[len(lats)/4],
	}, nil
}

// CanonicalServe returns a copy with every scheduling-dependent field
// zeroed — the byte-comparable projection two same-seed runs must
// agree on.
func CanonicalServe(s *ServeSuite) *ServeSuite {
	c := *s
	c.Results = append([]ServeResult(nil), s.Results...)
	for i := range c.Results {
		c.Results[i].P50Ns = 0
		c.Results[i].P99Ns = 0
		c.Results[i].ThroughputRPS = 0
		c.Results[i].BatchMean = 0
		c.Results[i].BatchMax = 0
	}
	c.Dispatch = append([]ServeDispatchResult(nil), s.Dispatch...)
	for i := range c.Dispatch {
		c.Dispatch[i].MedianNs = 0
		c.Dispatch[i].IQRNs = 0
	}
	return &c
}
