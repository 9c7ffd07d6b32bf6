// Package distributed reproduces the paper's Section 5.2 pipeline for
// large graphs: neighbor-sampled subgraphs (PyG NeighborSampler
// analog), offline SOGRE reordering of each sample, and parallel
// execution across a pool of simulated GPU workers (the paper uses four
// A100s), comparing the SPTC-based revised path against the CSR
// baseline with the SGC model.
package distributed

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/sptc"
)

// SamplerConfig controls neighbor sampling.
type SamplerConfig struct {
	Seeds  int   // seed vertices per sample
	Fanout []int // neighbors kept per hop, e.g. {10, 10}
	Seed   int64
}

// Sample is one sampled subgraph with its mapping to original ids.
type Sample struct {
	G    *graph.Graph
	Orig []int
}

// NeighborSample draws one subgraph: seed vertices plus a fanout-capped
// neighbor expansion per hop, then the induced subgraph on the union.
//
// Degenerate inputs yield valid (possibly empty) samples rather than
// panicking: an empty graph or Seeds <= 0 returns an empty sample, a
// zero-length Fanout returns the seed-only sample, and zero or negative
// per-hop fanouts keep no neighbors for that hop.
func NeighborSample(g *graph.Graph, cfg SamplerConfig, sampleIdx int) Sample {
	if g.N() == 0 || cfg.Seeds <= 0 {
		sub, orig := g.Subgraph(nil)
		return Sample{G: sub, Orig: orig}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(sampleIdx)*7919))
	inSet := make(map[int]bool)
	frontier := make([]int, 0, cfg.Seeds)
	for len(frontier) < cfg.Seeds && len(frontier) < g.N() {
		v := rng.Intn(g.N())
		if !inSet[v] {
			inSet[v] = true
			frontier = append(frontier, v)
		}
	}
	for _, fan := range cfg.Fanout {
		var next []int
		for _, u := range frontier {
			nbrs := g.Neighbors(u)
			take := fan
			if take > len(nbrs) {
				take = len(nbrs)
			}
			if take < 0 {
				take = 0
			}
			for _, pi := range rng.Perm(len(nbrs))[:take] {
				v := int(nbrs[pi])
				if !inSet[v] {
					inSet[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	vertices := make([]int, 0, len(inSet))
	for v := range inSet {
		vertices = append(vertices, v)
	}
	// Deterministic order.
	sort.Ints(vertices)
	sub, orig := g.Subgraph(vertices)
	return Sample{G: sub, Orig: orig}
}

// PipelineConfig controls the distributed run.
type PipelineConfig struct {
	Workers    int // simulated GPUs (paper: 4 A100s)
	Samples    int // subgraphs to process
	Features   int // feature width (Table 2's #Features)
	Classes    int
	Hops       int // SGC propagation steps
	Sampler    SamplerConfig
	AutoOpt    core.AutoOptions
	CostModel  sptc.CostModel
	RandomSeed int64
}

// Result aggregates the pipeline outcome — a Table 6 column.
type Result struct {
	Dataset        string
	Samples        int
	AvgSampleSize  float64
	LYRSpeedup     float64 // aggregation speedup (modeled cycles)
	ALLSpeedup     float64 // end-to-end speedup
	ConformedCount int
	// FallbackCount is how many samples kept the CSR path because the
	// cost model predicted SPTC would lose (the paper's Section 5.3
	// note: reordering is offline, so users can skip unsuitable
	// graphs).
	FallbackCount int
}

// Run executes the pipeline on graph g: sample -> (offline) reorder ->
// SGC forward on both engines, with samples spread over cfg.Workers
// workers; aggregates modeled cycles over the samples in sample order,
// so the result does not depend on scheduling.
func Run(name string, g *graph.Graph, cfg PipelineConfig) (*Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Samples <= 0 {
		cfg.Samples = cfg.Workers * 2
	}
	if cfg.Hops <= 0 {
		cfg.Hops = 2
	}
	if cfg.Features <= 0 {
		cfg.Features = 128
	}
	if cfg.Classes <= 0 {
		cfg.Classes = 16
	}
	if cfg.CostModel.FragRows == 0 {
		cfg.CostModel = sptc.DefaultCostModel()
	}
	// One result slot per sample, folded in sample order below, so the
	// float64 totals do not depend on which worker finishes first.
	type outcome struct {
		bAgg, bTot, rAgg, rTot float64
		size                   int
		conformed, fallback    bool
		err                    error
	}
	outs := make([]outcome, cfg.Samples)
	if err := sched.New(cfg.Workers).Run(cfg.Samples, func(s int) {
		o := &outs[s]
		sub := NeighborSample(g, cfg.Sampler, s).G
		// Offline: reorder this sample.
		auto, subR, err := reorderSample(sub, cfg.AutoOpt)
		if err != nil {
			o.err = err
			return
		}
		x := dense.NewMatrix(sub.N(), cfg.Features)
		x.Randomize(1, cfg.RandomSeed+int64(s))
		o.bAgg, o.bTot = runSGC(sub, x, cfg, gnn.EngineCSR, auto)
		o.rAgg, o.rTot = runSGC(subR, x, cfg, gnn.EngineSPTC, auto)
		if o.rAgg >= o.bAgg {
			// Offline decision: this sample is unsuitable for SPTC
			// execution; keep the CSR path.
			o.rAgg, o.rTot = o.bAgg, o.bTot
			o.fallback = true
		}
		o.size = sub.N()
		o.conformed = auto.Best.Conforming()
	}); err != nil {
		return nil, err
	}
	res := &Result{Dataset: name, Samples: cfg.Samples}
	var baseAgg, baseTotal, revAgg, revTotal, sizeSum float64
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		baseAgg += o.bAgg
		baseTotal += o.bTot
		revAgg += o.rAgg
		revTotal += o.rTot
		sizeSum += float64(o.size)
		if o.conformed {
			res.ConformedCount++
		}
		if o.fallback {
			res.FallbackCount++
		}
	}
	if revAgg == 0 || revTotal == 0 {
		return nil, fmt.Errorf("distributed: no samples processed")
	}
	res.AvgSampleSize = sizeSum / float64(cfg.Samples)
	res.LYRSpeedup = baseAgg / revAgg
	res.ALLSpeedup = baseTotal / revTotal
	return res, nil
}

// reorderSample is the offline step every sampled pipeline shares:
// AutoReorder the sample's self-looped adjacency and relabel the
// sample by the winning permutation.
func reorderSample(sub *graph.Graph, opt core.AutoOptions) (*core.AutoResult, *graph.Graph, error) {
	bm := sub.ToBitMatrix()
	for i := 0; i < bm.N(); i++ {
		bm.Set(i, i)
	}
	auto, err := core.AutoReorder(bm, opt)
	if err != nil {
		return nil, nil, err
	}
	subR, err := sub.ApplyPermutation(auto.Best.Perm)
	if err != nil {
		return nil, nil, err
	}
	return auto, subR, nil
}

// runSGC runs one SGC forward pass on the chosen engine and returns
// (aggregation cycles, total cycles).
func runSGC(g *graph.Graph, x *dense.Matrix, cfg PipelineConfig, engine gnn.EngineKind, auto *core.AutoResult) (float64, float64) {
	w := csr.SymNormalized(g)
	ledger := &gnn.Ledger{}
	factory := &gnn.Factory{Kind: engine, Pattern: auto.Best.Pattern, Cost: cfg.CostModel, Ledger: ledger}
	op, err := factory.Make(w)
	if err != nil {
		// SplitToConform cannot fail for validated patterns; treat as
		// empty contribution.
		return 0, 0
	}
	model := gnn.NewSGC(op, ledger, gnn.Config{In: cfg.Features, Classes: cfg.Classes, SGCHops: cfg.Hops, Seed: 3})
	model.Forward(x)
	return ledger.AggCycles, ledger.Total()
}
