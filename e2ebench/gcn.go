package main

// gcn-train: the paper's offline path. framework.Prepare reorders the
// Computers analog once (AutoReorder picks the V:N:M format), then a
// two-layer GCN trains with gnn.Train on the revised-reordered data
// through the SPTC engine, in rounds of a fixed epoch count.

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/framework"
	"repro/internal/gnn"
	"repro/internal/pattern"
	"repro/internal/sptc"
	"repro/internal/venom"
)

type gcnSizes struct {
	scale  float64 // Computers analog scale (0.25: 3,430 vertices)
	hidden int
	epochs int // epochs per training round
	warmup int // untimed warm-up epochs
}

func gcnSizesFor(tiny bool) gcnSizes {
	if tiny {
		return gcnSizes{scale: 0.02, hidden: 16, epochs: 3, warmup: 1}
	}
	return gcnSizes{scale: 0.25, hidden: 64, epochs: 20, warmup: 2}
}

// Tolerances of the lossless check: training on revised-reordered data
// through SPTC must match default-original CSR training up to float32
// summation order, which differs between the two.
const (
	// gcnDatasetSeed is the repository's default dataset seed.
	gcnDatasetSeed = 7

	gcnLossRelTol = 1e-3
	gcnAccTol     = 0.01
)

// timedOp decorates a gnn.Operator with call counts and busy time.
type timedOp struct {
	gnn.Operator
	calls int
	busy  time.Duration
}

func (o *timedOp) Mul(x *dense.Matrix) *dense.Matrix {
	t := time.Now()
	y := o.Operator.Mul(x)
	o.busy += time.Since(t)
	o.calls++
	return y
}

func (o *timedOp) MulT(x *dense.Matrix) *dense.Matrix {
	t := time.Now()
	y := o.Operator.MulT(x)
	o.busy += time.Since(t)
	o.calls++
	return y
}

// mark is the state of the counters at the start of one Forward.
type mark struct {
	at       time.Time
	agg      time.Duration
	aggCalls int
	fwd, bwd time.Duration
}

// timedModel decorates a gnn.Model. gnn.Train calls Forward once per
// epoch and once more for the final evaluation, so consecutive
// Forward starts bound the epochs. Forward/Backward durations are
// kept only when trace is set.
type timedModel struct {
	gnn.Model
	op       *timedOp // nil when untraced
	trace    bool
	marks    []mark
	fwd, bwd time.Duration
}

func (m *timedModel) Forward(x *dense.Matrix) *dense.Matrix {
	mk := mark{at: time.Now(), fwd: m.fwd, bwd: m.bwd}
	if m.op != nil {
		mk.agg, mk.aggCalls = m.op.busy, m.op.calls
	}
	m.marks = append(m.marks, mk)
	y := m.Model.Forward(x)
	if m.trace {
		m.fwd += time.Since(mk.at)
	}
	return y
}

func (m *timedModel) Backward(g *dense.Matrix) {
	if !m.trace {
		m.Model.Backward(g)
		return
	}
	t := time.Now()
	m.Model.Backward(g)
	m.bwd += time.Since(t)
}

// epochStats accumulates per-epoch figures over training rounds.
type epochStats struct {
	epochMs                       []float64
	aggMs, fwdMs, bwdMs, aggCalls []float64
}

// collect reads one finished round's marks: epoch i runs from Forward
// i to Forward i+1; the last Forward is the final evaluation.
func (s *epochStats) collect(m *timedModel) {
	for i := 0; i+1 < len(m.marks); i++ {
		a, b := m.marks[i], m.marks[i+1]
		s.epochMs = append(s.epochMs, ms(b.at.Sub(a.at)))
		s.aggMs = append(s.aggMs, ms(b.agg-a.agg))
		s.aggCalls = append(s.aggCalls, float64(b.aggCalls-a.aggCalls))
		s.fwdMs = append(s.fwdMs, ms(b.fwd-a.fwd))
		s.bwdMs = append(s.bwdMs, ms(b.bwd-a.bwd))
	}
}

func runGCNTrain(cfg runConfig) (*result, error) {
	sz := gcnSizesFor(cfg.tiny)
	// The dataset is fixed, as in the paper; the seed draws the split
	// and the initial weights. Other SBM draws of the analog make
	// AutoReorder pick other formats, so seeds would compare different
	// experiments (README.md).
	ds, err := datasets.ByName("Computers", datasets.GenOptions{Scale: sz.scale, Seed: gcnDatasetSeed, MaxClasses: 12})
	if err != nil {
		return nil, err
	}
	ds.Split = gnn.RandomSplit(ds.G.N(), 0.3, 0.2, cfg.seed)
	res := newResult()
	tr := newTracer(cfg.trace)

	// Set-up: dataset in -> Prepare done and SPTC operator built.
	t0 := time.Now()
	var pr *framework.Prep
	tr.time("framework.prepare", func() { pr, err = framework.Prepare(ds, core.AutoOptions{}) })
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	rd := pr.Reordered
	w := csr.SymNormalized(rd.G)
	factory := &gnn.Factory{Kind: gnn.EngineSPTC, Pattern: pr.Pattern, Cost: sptc.DefaultCostModel(), Ledger: &gnn.Ledger{}}
	var op gnn.Operator
	tr.time("venom.split", func() { op, err = factory.Make(w) })
	if err != nil {
		return nil, fmt.Errorf("operator: %w", err)
	}
	setup := time.Since(t0)
	fmt.Fprintf(os.Stderr, "e2ebench: gcn-train: %d vertices, AutoReorder picked %v\n", ds.G.N(), pr.Pattern)

	var top *timedOp
	modelOp := op
	if cfg.trace {
		top = &timedOp{Operator: op}
		modelOp = top
	}
	mcfg := gnn.Config{In: rd.X.Cols, Hidden: sz.hidden, Classes: rd.Classes, Seed: cfg.seed + 11}
	newModel := func() (*timedModel, error) {
		m, err := gnn.Build(gnn.KindGCN, modelOp, factory.Ledger, mcfg)
		if err != nil {
			return nil, err
		}
		return &timedModel{Model: m, op: top, trace: cfg.trace}, nil
	}
	tcfg := gnn.TrainConfig{Epochs: sz.epochs, LR: 0.02, WD: 5e-4}

	// Warm-up, then the live heap.
	wm, err := newModel()
	if err != nil {
		return nil, err
	}
	gnn.Train(wm, rd.X, rd.Labels, rd.Split, gnn.TrainConfig{Epochs: sz.warmup, LR: tcfg.LR, WD: tcfg.WD})
	heap := liveHeapMB()

	// Measured phase: whole training rounds until the time is up.
	var st epochStats
	var first gnn.TrainResult
	rounds := 0
	mem0 := readMem()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for rounds == 0 || time.Now().Before(deadline) {
		m, err := newModel()
		if err != nil {
			return nil, err
		}
		out := gnn.Train(m, rd.X, rd.Labels, rd.Split, tcfg)
		st.collect(m)
		if rounds == 0 {
			first = out
		} else if !sameLoss(first.LossHistory, out.LossHistory) || out.TestAcc != first.TestAcc {
			res.fail("round %d: loss history or test accuracy differs from round 0 with the same seed", rounds)
		}
		rounds++
	}
	mem1 := readMem()
	epochs := len(st.epochMs)
	res.attempted = epochs
	// The spread of epoch times on standard error shows when the
	// host's speed shifted within a run (README.md, Reference figures).
	sorted := append([]float64(nil), st.epochMs...)
	sort.Float64s(sorted)
	fmt.Fprintf(os.Stderr, "e2ebench: gcn-train: %d epochs, ms p10 %.1f p50 %.1f p90 %.1f\n",
		epochs, percentile(sorted, 10), percentile(sorted, 50), percentile(sorted, 90))

	// model_speedup: the paper's Table 3 cell (cycle model).
	base, err := pr.Run(gnn.KindGCN, framework.DefaultOriginal, framework.PYG, framework.RunConfig{Hidden: sz.hidden, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	rev, err := pr.Run(gnn.KindGCN, framework.RevisedReordered, framework.PYG, framework.RunConfig{Hidden: sz.hidden, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	_, speedup := framework.Speedup(base, rev)

	// The unit operation is one training epoch.
	add := func(name, unit string, v float64) { res.e2e(cfg.trace, name, unit, v) }
	add("setup_s", "s", setup.Seconds())
	opLatencyMetrics(add, st.epochMs)
	add("model_speedup", "x", speedup)
	add("live_heap_mb", "MB", heap)

	// Output checks.
	if err := checkPermutedDataset(ds, rd, pr.Auto.Best.Perm); err != nil {
		res.fail("reordered dataset: %v", err)
	}
	checkAggregation(res, op, edgeSetOf(ds.G).permuted(pr.Auto.Best.Perm).ref(), sz.hidden, cfg.seed)
	if err := checkLossless(ds, pr.Pattern, mcfg, tcfg, first); err != nil {
		res.fail("lossless training: %v", err)
	}

	if cfg.trace {
		m := res.metrics
		bm := ds.G.ToBitMatrix()
		for i := 0; i < bm.N(); i++ {
			bm.Set(i, i)
		}
		tr.time("core.reorder", func() { _, err = core.AutoReorder(bm, core.AutoOptions{}) })
		if err != nil {
			return nil, err
		}
		comp, resid, err := venom.SplitToConform(w, pr.Pattern)
		if err != nil {
			return nil, err
		}
		timeKernels(res, tr, comp, resid, w, sz.hidden, cfg.seed)
		e := float64(epochs)
		m.add("core.reorder_s", "s", tr.medianMs("core.reorder")/1e3)
		m.add("core.final_pscore", "count", float64(pr.Auto.Best.FinalPScore))
		m.add("core.final_mbscore", "count", float64(pr.Auto.Best.FinalMBScore))
		m.add("framework.prepare_s", "s", tr.medianMs("framework.prepare")/1e3)
		m.add("venom.split_ms", "ms", tr.medianMs("venom.split"))
		m.add("venom.residual_nnz", "count", float64(resid.NNZ()))
		m.add("spmm.agg_ms", "ms", median(st.aggMs))
		m.add("spmm.agg_calls", "count", median(st.aggCalls))
		fwd, bwd, agg := median(st.fwdMs), median(st.bwdMs), median(st.aggMs)
		m.add("gnn.forward_ms", "ms", fwd)
		m.add("gnn.backward_ms", "ms", bwd)
		m.add("gnn.dense_ms", "ms", fwd+bwd-agg)
		m.add("gnn.step_ms", "ms", median(st.epochMs)-fwd-bwd)
		m.add("runtime.alloc_kb_per_op", "KB", float64(mem1.totalAlloc-mem0.totalAlloc)/1024/e)
		m.add("runtime.gc_pause_ms", "ms", float64(mem1.pauseNs-mem0.pauseNs)/1e6)
	}
	return res, nil
}

func sameLoss(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkPermutedDataset checks that reo is orig renumbered by perm (new
// position i holds original vertex perm[i]): edge for edge, feature
// row for feature row, label for label, split for split.
func checkPermutedDataset(orig, reo *datasets.Dataset, perm []int) error {
	n := orig.G.N()
	if len(perm) != n || reo.G.N() != n {
		return fmt.Errorf("sizes: perm %d, reordered %d, original %d", len(perm), reo.G.N(), n)
	}
	seen := make([]bool, n)
	for _, v := range perm {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("perm is not a bijection (entry %d)", v)
		}
		seen[v] = true
	}
	if reo.G.NumEdges() != orig.G.NumEdges() {
		return fmt.Errorf("edge count %d, original %d", reo.G.NumEdges(), orig.G.NumEdges())
	}
	for u := 0; u < n; u++ {
		for _, v := range reo.G.Neighbors(u) {
			if !orig.G.HasEdge(perm[u], perm[int(v)]) {
				return fmt.Errorf("edge %d-%d maps to %d-%d, absent from the original", u, v, perm[u], perm[int(v)])
			}
		}
		if reo.Labels[u] != orig.Labels[perm[u]] {
			return fmt.Errorf("label of %d differs from original vertex %d", u, perm[u])
		}
		if !sameBits(reo.X.Row(u), orig.X.Row(perm[u])) {
			return fmt.Errorf("features of %d differ from original vertex %d", u, perm[u])
		}
	}
	for _, s := range [][2][]int{
		{reo.Split.Train, orig.Split.Train}, {reo.Split.Val, orig.Split.Val}, {reo.Split.Test, orig.Split.Test},
	} {
		if len(s[0]) != len(s[1]) {
			return fmt.Errorf("split sizes differ")
		}
		for k, i := range s[0] {
			if perm[i] != s[1][k] {
				return fmt.Errorf("split entry %d maps to %d, original %d", k, perm[i], s[1][k])
			}
		}
	}
	return nil
}

// checkAggregation compares the SPTC operator's Mul and MulT with the
// float64 reference Â·B of g, the original graph renumbered by the
// benchmark under the permutation Prepare returned.
func checkAggregation(res *result, op gnn.Operator, g *refGraph, width int, seed int64) {
	b := dense.NewMatrix(g.n, width)
	b.Randomize(1, seed+5)
	ref := g.propagate(b.Data, width, 1, nil)
	for _, mul := range []struct {
		name string
		y    *dense.Matrix
	}{{"Mul", op.Mul(b)}, {"MulT", op.MulT(b)}} {
		for v := 0; v < mul.y.Rows; v++ {
			if err := ref.checkRow(v, mul.y.Row(v)); err != nil {
				res.fail("SPTC aggregation %s: %v", mul.name, err)
				break
			}
		}
	}
}

// checkLossless trains the same GCN on the original numbering through
// the CSR engine (default-original) and compares it with the SPTC
// round on revised-reordered data.
func checkLossless(orig *datasets.Dataset, p pattern.VNM, mcfg gnn.Config, tcfg gnn.TrainConfig, sptcRun gnn.TrainResult) error {
	factory := gnn.NewFactory(gnn.EngineCSR, p)
	op, err := factory.Make(csr.SymNormalized(orig.G))
	if err != nil {
		return err
	}
	m, err := gnn.Build(gnn.KindGCN, op, factory.Ledger, mcfg)
	if err != nil {
		return err
	}
	base := gnn.Train(m, orig.X, orig.Labels, orig.Split, tcfg)
	if len(base.LossHistory) != len(sptcRun.LossHistory) {
		return fmt.Errorf("loss history lengths %d vs %d", len(base.LossHistory), len(sptcRun.LossHistory))
	}
	for i, l := range base.LossHistory {
		if d := math.Abs(l - sptcRun.LossHistory[i]); d > gcnLossRelTol*math.Max(1, math.Abs(l)) {
			return fmt.Errorf("epoch %d loss %.7g (SPTC, reordered) vs %.7g (CSR, original)", i, sptcRun.LossHistory[i], l)
		}
	}
	if d := math.Abs(base.TestAcc - sptcRun.TestAcc); d > gcnAccTol {
		return fmt.Errorf("test accuracy %.4f (SPTC, reordered) vs %.4f (CSR, original)", sptcRun.TestAcc, base.TestAcc)
	}
	return nil
}
