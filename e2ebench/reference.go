package main

// Output references built apart from the program: the normalized
// adjacency, its propagation and the forward-error bounds are computed
// here in float64 from the benchmark's own view of the graph, never
// from the program's matrices or kernels.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dense"
	"repro/internal/dyn"
	"repro/internal/graph"
)

// unitRoundoff is float32's unit roundoff, 2^-24.
const unitRoundoff = 1.0 / (1 << 24)

// refGraph is an undirected graph as sorted closed neighborhoods:
// nbr[v] holds v's neighbors and v itself (A ∨ I). The normalized
// adjacency the program serves and trains on is
// Â[v][u] = 1/sqrt(|nbr[v]|·|nbr[u]|) for u in nbr[v].
type refGraph struct {
	n   int
	nbr [][]int32
}

// refFromGraph reads g's structure through its neighbor lists.
func refFromGraph(g *graph.Graph) *refGraph { return edgeSetOf(g).ref() }

// edgeSet is the benchmark's own record of an undirected edge set,
// updated by the mutations it sends.
type edgeSet struct {
	n   int
	adj []map[int32]struct{}
}

// edgeSetOf copies g's edges as undirected edges.
func edgeSetOf(g *graph.Graph) *edgeSet {
	es := newEdgeSet(g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			es.add(u, int(v))
		}
	}
	return es
}

func newEdgeSet(n int) *edgeSet {
	es := &edgeSet{n: n, adj: make([]map[int32]struct{}, n)}
	for i := range es.adj {
		es.adj[i] = map[int32]struct{}{}
	}
	return es
}

// permuted renumbers the edge set: new vertex i is old vertex perm[i].
func (es *edgeSet) permuted(perm []int) *edgeSet {
	inv := make([]int, len(perm))
	for i, v := range perm {
		inv[v] = i
	}
	out := newEdgeSet(es.n)
	for u, nbrs := range es.adj {
		for v := range nbrs {
			out.add(inv[u], inv[v])
		}
	}
	return out
}

func (es *edgeSet) has(u, v int) bool {
	_, ok := es.adj[u][int32(v)]
	return ok
}

func (es *edgeSet) add(u, v int) {
	es.adj[u][int32(v)] = struct{}{}
	es.adj[v][int32(u)] = struct{}{}
}

func (es *edgeSet) del(u, v int) {
	delete(es.adj[u], int32(v))
	delete(es.adj[v], int32(u))
}

// apply records one mutation.
func (es *edgeSet) apply(m dyn.Mutation) {
	if m.Op == dyn.OpInsert {
		es.add(m.U, m.V)
	} else {
		es.del(m.U, m.V)
	}
}

// ref snapshots the edge set as closed neighborhoods.
func (es *edgeSet) ref() *refGraph {
	r := &refGraph{n: es.n, nbr: make([][]int32, es.n)}
	for v := 0; v < es.n; v++ {
		l := make([]int32, 0, len(es.adj[v])+1)
		for u := range es.adj[v] {
			l = append(l, u)
		}
		if !es.has(v, v) {
			l = append(l, int32(v))
		}
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		r.nbr[v] = l
	}
	return r
}

// gamma is the classic bound k·u/(1-k·u) on the relative error of a
// k-term float32 sum of products.
func gamma(k int) float64 {
	ku := float64(k) * unitRoundoff
	return ku / (1 - ku)
}

// propagation is the float64 reference of Â^hops·X with, entry by
// entry, a bound on the forward error any float32 evaluation may show:
// per hop, the error carried in through Â plus γ(len(row)+3) times the
// absolute-value propagation (the +3 covers the rounding of the
// normalization factors and of the stored result). Any summation
// order — CSR, V:N:M blocks plus residual, coalesced or not — stays
// inside it.
type propagation struct {
	cols     int
	val, tol []float64 // row-major n×cols
}

// propagate computes Â^hops·x for x given row-major (n×cols). When
// rows is non-nil only those rows of the result are computed (with
// the neighborhoods they depend on); the others stay zero.
func (r *refGraph) propagate(x []float32, cols, hops int, rows []int) *propagation {
	n := r.n
	// need[h][v]: row v of hop h is required (hop 0 is x itself).
	need := make([][]bool, hops+1)
	need[hops] = make([]bool, n)
	for v := range need[hops] {
		need[hops][v] = rows == nil
	}
	for _, v := range rows {
		need[hops][v] = true
	}
	for h := hops; h > 1; h-- {
		need[h-1] = make([]bool, n)
		for v, ok := range need[h] {
			if ok {
				for _, u := range r.nbr[v] {
					need[h-1][u] = true
				}
			}
		}
	}
	val := make([]float64, n*cols)
	abs := make([]float64, n*cols)
	errb := make([]float64, n*cols)
	for i, v := range x {
		val[i] = float64(v)
		abs[i] = math.Abs(float64(v))
	}
	deg := make([]float64, n)
	for v := range deg {
		deg[v] = float64(len(r.nbr[v]))
	}
	for h := 1; h <= hops; h++ {
		nv := make([]float64, n*cols)
		na := make([]float64, n*cols)
		ne := make([]float64, n*cols)
		for v := 0; v < n; v++ {
			if !need[h][v] {
				continue
			}
			g := gamma(len(r.nbr[v]) + 3)
			ov, oa, oe := nv[v*cols:(v+1)*cols], na[v*cols:(v+1)*cols], ne[v*cols:(v+1)*cols]
			for _, u := range r.nbr[v] {
				w := 1 / math.Sqrt(deg[v]*deg[int(u)])
				iv, ia, ie := val[int(u)*cols:], abs[int(u)*cols:], errb[int(u)*cols:]
				for f := 0; f < cols; f++ {
					ov[f] += w * iv[f]
					oa[f] += w * ia[f]
					oe[f] += w * ie[f]
				}
			}
			for f := 0; f < cols; f++ {
				oe[f] += g * oa[f]
			}
		}
		val, abs, errb = nv, na, ne
	}
	// Safety factor 2 on the bound: first-order terms only above.
	for i := range errb {
		errb[i] *= 2
	}
	return &propagation{cols: cols, val: val, tol: errb}
}

// checkRow compares one served row with the reference row of vertex v.
func (p *propagation) checkRow(v int, got []float32) error {
	if len(got) != p.cols {
		return fmt.Errorf("vertex %d: row has %d values, want %d", v, len(got), p.cols)
	}
	want, tol := p.val[v*p.cols:(v+1)*p.cols], p.tol[v*p.cols:(v+1)*p.cols]
	for f, g := range got {
		if d := math.Abs(float64(g) - want[f]); !(d <= tol[f]) {
			return fmt.Errorf("vertex %d col %d: got %.9g, reference %.9g (|diff| %.3g > bound %.3g)", v, f, g, want[f], d, tol[f])
		}
	}
	return nil
}

// checkClass checks a served class index for vertex v against the
// reference logits under head (cols×classes): wherever the top-2
// margin exceeds both logits' error bounds, the argmax must match.
func (p *propagation) checkClass(v, got int, head *dense.Matrix) error {
	row, tol := p.val[v*p.cols:(v+1)*p.cols], p.tol[v*p.cols:(v+1)*p.cols]
	classes := head.Cols
	if got < 0 || got >= classes {
		return fmt.Errorf("vertex %d: class %d out of range", v, got)
	}
	logit := make([]float64, classes)
	bound := make([]float64, classes)
	for c := 0; c < classes; c++ {
		var s, mag, carried float64
		for k, x := range row {
			h := float64(head.At(k, c))
			s += x * h
			mag += math.Abs(x * h)
			carried += math.Abs(h) * tol[k]
		}
		logit[c] = s
		bound[c] = 2 * (carried + gamma(p.cols+2)*mag)
	}
	best := 0
	for c := range logit {
		if logit[c] > logit[best] {
			best = c
		}
	}
	if got == best {
		return nil
	}
	// got differs from the reference argmax: acceptable only if the two
	// logits are within their combined bound.
	if logit[best]-logit[got] <= bound[best]+bound[got] {
		return nil
	}
	return fmt.Errorf("vertex %d: class %d, reference argmax %d (margin %.3g > bound %.3g)",
		v, got, best, logit[best]-logit[got], bound[best]+bound[got])
}

// seededFeatures reproduces the serving engine's documented seeded
// matrices: an n×dim uniform(-1,1) matrix drawn from seed. With the
// engine's seed it is the feature matrix (row v belongs to original
// vertex v); with seed+1 and n = FeatureDim, the classify head.
func seededFeatures(n, dim int, seed int64) *dense.Matrix {
	x := dense.NewMatrix(n, dim)
	x.Randomize(1, seed)
	return x
}

// sameBits compares two rows bit for bit.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
