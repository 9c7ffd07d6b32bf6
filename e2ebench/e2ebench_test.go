package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dyn"
	"repro/internal/framework"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/wal"
)

// declared reads the metrics BENCHMARK.json declares, in its order.
func declared(t *testing.T) (e2e, layer []metricDecl) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDecl{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDecl{m.Name, m.Unit})
	}
	return e2e, layer
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced: all output checks pass, every workload prints every metric
// BENCHMARK.json declares for its mode, and every per-layer metric is
// measured by at least one workload.
func TestWorkloadsTiny(t *testing.T) {
	e2e, layer := declared(t)
	if !reflect.DeepEqual(e2e, endToEnd) || !reflect.DeepEqual(layer, perLayer) {
		t.Fatalf("metric lists differ from BENCHMARK.json:\n e2e %v\n     %v\n layer %v\n       %v", endToEnd, e2e, perLayer, layer)
	}
	measured := map[string]bool{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := w.run(runConfig{seed: 3, seconds: 0.2, trace: trace, tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct() || res.attempted < 1 || res.failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, trace, res.correct(), res.attempted, res.failed, res.problems)
			}
			if trace {
				for _, name := range res.metrics.names {
					measured[name] = true
				}
			}
			out, err := res.output(trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !trace {
				for name, m := range out.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", w.name, name, m.Value)
					}
				}
			}
		}
	}
	for _, d := range perLayer {
		if !measured[d.name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.name)
		}
	}
}

func TestOutputRejectsMissingMetric(t *testing.T) {
	res := newResult()
	for _, d := range endToEnd[1:] {
		res.metrics.add(d.name, d.unit, 1)
	}
	if _, err := res.output(false); err == nil {
		t.Fatal("a result line without setup_s passed")
	}
	res.metrics.add("setup_s", "ms", 1)
	if _, err := res.output(false); err == nil {
		t.Fatal("setup_s in ms passed")
	}
}

// smallEngine serves a small SBM graph in hybrid mode.
func smallEngine(t *testing.T) (*graph.Graph, *serve.Engine, serve.EngineConfig) {
	t.Helper()
	sz := serveSizes{n: 128, communities: 4, degree: 8, homophily: 0.8}
	g := sz.sbm(5)
	cfg := serve.EngineConfig{FeatureDim: 8, Seed: 5, CacheRows: 16}
	e, err := serve.NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, e, cfg
}

func TestCheckResponseRejectsPerturbedRow(t *testing.T) {
	g, e, cfg := smallEngine(t)
	req := &serve.Request{Op: serve.OpEmbed, Nodes: []int{3, 40, 77}}
	resp := e.ServeBatch([]*serve.Request{req}, false)[0]
	ref := refFromGraph(g).propagate(seededFeatures(g.N(), cfg.FeatureDim, cfg.Seed).Data, cfg.FeatureDim, 2, nil)
	head := seededFeatures(cfg.FeatureDim, 8, cfg.Seed+1)
	s := served{req: req, resp: resp}
	if err := checkResponse(s, ref, head); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	row := append([]float32(nil), resp.Rows[1]...)
	row[2] += 1e-5
	bad := &serve.Response{Op: resp.Op, Rows: [][]float32{resp.Rows[0], row, resp.Rows[2]}}
	if err := checkResponse(served{req: req, resp: bad}, ref, head); err == nil {
		t.Fatal("a row perturbed by 1e-5 passed the check")
	}
	// The same row through a graph missing one of vertex 40's edges.
	es := edgeSetOf(g)
	u := int(g.Neighbors(40)[0])
	if u == 40 {
		u = int(g.Neighbors(40)[1])
	}
	es.del(40, u)
	other := es.ref().propagate(seededFeatures(g.N(), cfg.FeatureDim, cfg.Seed).Data, cfg.FeatureDim, 2, []int{40})
	if err := other.checkRow(40, resp.Rows[1]); err == nil {
		t.Fatal("the row passed against the reference of a different graph")
	}
}

func TestCheckClassRejectsWrongClass(t *testing.T) {
	g, e, cfg := smallEngine(t)
	ref := refFromGraph(g).propagate(seededFeatures(g.N(), cfg.FeatureDim, cfg.Seed).Data, cfg.FeatureDim, 2, nil)
	head := seededFeatures(cfg.FeatureDim, 8, cfg.Seed+1)
	rejected := 0
	for v := 0; v < g.N(); v++ {
		resp := e.ServeBatch([]*serve.Request{{Op: serve.OpClassify, Nodes: []int{v}}}, false)[0]
		if err := ref.checkClass(v, resp.Classes[0], head); err != nil {
			t.Fatalf("served class rejected: %v", err)
		}
		if ref.checkClass(v, (resp.Classes[0]+1)%8, head) != nil {
			rejected++
		}
	}
	if rejected < g.N()/2 {
		t.Fatalf("only %d of %d wrong classes rejected", rejected, g.N())
	}
}

func TestCheckPermutedDatasetRejectsDroppedEdge(t *testing.T) {
	ds, err := datasets.ByName("Cora", datasets.GenOptions{Scale: 0.05, Seed: 2, MaxClasses: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := framework.Prepare(ds, core.AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	perm := pr.Auto.Best.Perm
	if err := checkPermutedDataset(ds, pr.Reordered, perm); err != nil {
		t.Fatalf("Prepare's reordered dataset rejected: %v", err)
	}
	var edges [][2]int
	rg := pr.Reordered.G
	for u := 0; u < rg.N(); u++ {
		for _, v := range rg.Neighbors(u) {
			if int(v) > u {
				edges = append(edges, [2]int{u, int(v)})
			}
		}
	}
	dropped, err := graph.NewFromEdges(rg.N(), edges[1:])
	if err != nil {
		t.Fatal(err)
	}
	bad := *pr.Reordered
	bad.G = dropped
	if err := checkPermutedDataset(ds, &bad, perm); err == nil {
		t.Fatal("a reordered dataset missing one edge passed the check")
	}
	swapped := append([]int(nil), perm...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := checkPermutedDataset(ds, pr.Reordered, swapped); err == nil {
		t.Fatal("a wrong permutation passed the check")
	}
}

func TestCheckWALRejectsMissingLastRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	const fp = 42
	log, _, err := wal.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	const acks = 5
	for i := 0; i < acks; i++ {
		if _, err := log.Append(wal.EncodeBatch([]dyn.Mutation{{Op: dyn.OpInsert, U: i, V: i + 1}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := checkWALRecords(path, fp, acks); err != nil {
		t.Fatalf("complete log rejected: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	if err := checkWALRecords(path, fp, acks); err == nil {
		t.Fatal("a log missing its last acknowledged record passed the check")
	}
}

func TestCheckMutationsRejectsPartialBatch(t *testing.T) {
	sz := serveSizes{n: 64, communities: 4, degree: 6, homophily: 0.8}
	g := sz.sbm(4)
	st := dyn.GenerateStream(g, 8, 4)
	batches := [][]dyn.Mutation{st.Ops[:4], st.Ops[4:]}
	acks := []ack{
		{out: serve.MutateOutcome{Epoch: 1, Batch: dyn.BatchOutcome{Applied: 4}}},
		{out: serve.MutateOutcome{Epoch: 2, Batch: dyn.BatchOutcome{Applied: 4}}},
	}
	res := newResult()
	checkMutations(res, g, batches, acks)
	if !res.correct() {
		t.Fatalf("complete acks rejected: %v", res.problems)
	}
	acks[1].out.Batch.Applied = 3
	res = newResult()
	checkMutations(res, g, batches, acks)
	if res.correct() {
		t.Fatal("a batch applied in part passed the check")
	}
}

func TestPercentile(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if p50, p90 := percentile(s, 50), percentile(s, 90); p50 != 50 || p90 != 90 {
		t.Errorf("percentile of 1..100: p50 %v, p90 %v", p50, p90)
	}
	if p := percentile([]float64{1, 2, 3, 4}, 50); p != 2 || !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile: got %v", p)
	}
}
