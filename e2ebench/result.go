package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metricSet is an ordered list of named measurements.
type metricSet struct {
	names  []string
	values map[string]float64
	units  map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]float64{}, units: map[string]string{}}
}

func (m *metricSet) add(name, unit string, v float64) {
	if _, dup := m.values[name]; !dup {
		m.names = append(m.names, name)
	}
	m.values[name] = v
	m.units[name] = unit
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) asJSON() map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(m.names))
	for _, n := range m.names {
		out[n] = jsonMetric{Value: m.values[n], Unit: m.units[n]}
	}
	return out
}

// metricDecl is a metric BENCHMARK.json declares.
type metricDecl struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json (the package's tests
// hold them equal). Every workload prints every metric of its mode.
var endToEnd = []metricDecl{
	{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"}, {"model_speedup", "x"}, {"live_heap_mb", "MB"},
}

var perLayer = []metricDecl{
	{"core.reorder_s", "s"}, {"core.final_pscore", "count"}, {"core.final_mbscore", "count"},
	{"framework.prepare_s", "s"},
	{"venom.split_ms", "ms"}, {"venom.residual_nnz", "count"},
	{"spmm.agg_ms", "ms"}, {"spmm.agg_calls", "count"}, {"spmm.hybrid_ms", "ms"}, {"spmm.csr_ms", "ms"},
	{"gnn.forward_ms", "ms"}, {"gnn.backward_ms", "ms"}, {"gnn.dense_ms", "ms"}, {"gnn.step_ms", "ms"},
	{"serve.engine_build_s", "s"}, {"serve.batch_ms", "ms"}, {"serve.read_p50_ms", "ms"},
	{"serve.batch_requests_mean", "count"}, {"serve.cache_hit_ratio", "ratio"}, {"serve.dispatches_per_query", "count"},
	{"serve.mutate_ms", "ms"}, {"serve.repair_swaps", "count"}, {"serve.rebuilds", "count"},
	{"serve.restore_s", "s"}, {"serve.replay_s", "s"}, {"serve.recovery_s", "s"},
	{"dyn.apply_batch_us", "us"},
	{"wal.commit_ms", "ms"}, {"wal.open_ms", "ms"}, {"wal.bytes_per_batch", "bytes"},
	{"runtime.alloc_kb_per_op", "KB"}, {"runtime.gc_pause_ms", "ms"},
}

// result is one workload run: operation counts, the metrics of the
// run's mode, and every failed output check.
type result struct {
	attempted, failed int
	metrics           *metricSet
	// traceE2E holds a traced run's end-to-end figures (nil when
	// untraced); they are printed apart from the result line.
	traceE2E *metricSet
	problems []string
}

func newResult() *result { return &result{metrics: newMetricSet()} }

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	if len(r.problems) < 64 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 64 {
		r.problems = append(r.problems, "further failures omitted")
	}
}

func (r *result) correct() bool { return len(r.problems) == 0 }

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// output is the result line. A traced run reports 0 for every layer
// metric its workload does not exercise (no serve work in gcn-train,
// no training in the serve workloads, no mutation in serve-read). An
// untraced run that misses an end-to-end metric is a benchmark bug.
func (r *result) output(trace bool) (jsonResult, error) {
	if trace {
		for _, d := range perLayer {
			if _, ok := r.metrics.values[d.name]; !ok {
				r.metrics.add(d.name, d.unit, 0)
			}
		}
	}
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	if len(r.metrics.names) != len(decls) {
		return jsonResult{}, fmt.Errorf("%d metrics reported, %d declared", len(r.metrics.names), len(decls))
	}
	for _, d := range decls {
		v, ok := r.metrics.values[d.name]
		if !ok || r.metrics.units[d.name] != d.unit || math.IsNaN(v) || math.IsInf(v, 0) {
			return jsonResult{}, fmt.Errorf("metric %s [%s] missing, in another unit or not finite", d.name, d.unit)
		}
	}
	return jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics.asJSON()}, nil
}

// e2e routes an end-to-end metric to the result line or, in a traced
// run, to the traced run's end-to-end figures.
func (r *result) e2e(trace bool, name, unit string, v float64) {
	if trace {
		if r.traceE2E == nil {
			r.traceE2E = newMetricSet()
		}
		r.traceE2E.add(name, unit, v)
		return
	}
	r.metrics.add(name, unit, v)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// opLatencyMetrics adds op_p50_ms and op_p90_ms, the median and 90th
// percentile of a workload's unit-operation latencies, in ms. Every
// workload runs at least 100 operations a run, so ten or more samples
// lie beyond p90.
func opLatencyMetrics(add func(name, unit string, v float64), samples []float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	add("op_p50_ms", "ms", percentile(s, 50))
	add("op_p90_ms", "ms", percentile(s, 90))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// memSnap is a point-in-time read of the runtime's allocation and GC
// counters.
type memSnap struct {
	totalAlloc uint64
	pauseNs    uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{totalAlloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tracer records named spans, timed from outside the layer called,
// in memory; per-layer metrics are derived from them when the run
// ends. A nil tracer records nothing.
type tracer struct {
	spans map[string][]time.Duration
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{spans: map[string][]time.Duration{}}
}

// time runs f and records its duration under name.
func (t *tracer) time(name string, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	t.spans[name] = append(t.spans[name], time.Since(start))
}

// medianMs is the median duration recorded under name, in ms.
func (t *tracer) medianMs(name string) float64 {
	ds := t.spans[name]
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}
