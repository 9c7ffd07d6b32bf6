package distributed

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/spmm"
	"repro/internal/venom"
)

// PartitionedSpMM computes C = A x B for a graph adjacency A too large
// for one device, following the paper's Section 4.4 recipe: partition
// the vertex set, reorder each partition's local adjacency
// independently, run the SPTC kernel on each reordered diagonal block,
// reorder the partial results back, and accumulate them together with
// the cross-partition (off-diagonal) contributions computed on the
// CSR path. The result is bit-compatible with the direct global SpMM.
//
// Returns the result and the per-partition reorder outcomes.
func PartitionedSpMM(g *graph.Graph, b *dense.Matrix, maxN int, p pattern.VNM, opt core.Options) (*dense.Matrix, []*core.Result, error) {
	// Diagonal blocks fan out on the execution pool (one simulated
	// device each) — a bounded worker set rather than a goroutine per
	// partition, shared with each partition's internal reordering
	// phases.
	pool := opt.ExecutionPool()
	if opt.Pool == nil {
		opt.Pool = pool
	}
	var results []*core.Result
	c, err := runPartitioned(g, b, maxN, p, func(n int, fn func(int)) error {
		// The partition count is known only here, before any compute.
		results = make([]*core.Result, n)
		return pool.Run(n, fn)
	}, func(pi int, part []int) ([]int, []float32, error) {
		out, err := computePartition(g, b, part, p, opt)
		if err != nil {
			return nil, nil, err
		}
		results[pi] = out.res
		return out.rows, out.localC.Data, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return c, results, nil
}

// runPartitioned is the Section 4.4 pipeline both PartitionedSpMM and
// Cluster.DistributedSpMM run: BFS-partition the vertex set, hand
// partition pi to compute through fanout (which must call fn once for
// every index in [0, n) and return when all calls have), scatter each
// returned block — data holds one b.Cols-wide row per entry of rows,
// the block's global target rows — into C, then add the
// cross-partition edges. Scatters run concurrently: partitions own
// disjoint rows.
func runPartitioned(g *graph.Graph, b *dense.Matrix, maxN int, p pattern.VNM,
	fanout func(n int, fn func(pi int)) error,
	compute func(pi int, part []int) (rows []int, data []float32, err error)) (*dense.Matrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	if b.Rows != n {
		return nil, fmt.Errorf("distributed: B has %d rows, want %d", b.Rows, n)
	}
	parts := core.BFSPartition(g, maxN)
	partOf := make([]int32, n)
	for pi, part := range parts {
		for _, v := range part {
			partOf[v] = int32(pi)
		}
	}
	c := dense.NewMatrix(n, b.Cols)
	errs := make([]error, len(parts))
	if err := fanout(len(parts), func(pi int) {
		rows, data, err := compute(pi, parts[pi])
		if err != nil {
			errs[pi] = err
			return
		}
		for j, r := range rows {
			copy(c.Row(r), data[j*b.Cols:(j+1)*b.Cols])
		}
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	crossPartitionPass(g, b, c, partOf)
	return c, nil
}

// partOut is one partition's computed diagonal-block contribution:
// localC's row j belongs on global row rows[j].
type partOut struct {
	res    *core.Result
	localC *dense.Matrix
	rows   []int
}

// computePartition is the pure per-partition diagonal-block pipeline:
// reorder the induced subgraph, split to the conforming + residual
// hybrid, gather B rows in reordered order, run the SPTC kernel (CSR
// for the residual), and report the rows in global coordinates. It
// reads only immutable inputs and returns a fresh result, so the
// recovery layer can re-run it after a crash, straggler re-dispatch, or
// detected corruption and obtain a bit-identical partial result
// (DESIGN.md §10).
func computePartition(g *graph.Graph, b *dense.Matrix, part []int, p pattern.VNM, opt core.Options) (*partOut, error) {
	sub, orig := g.Subgraph(part)
	res, err := core.Reorder(sub.ToBitMatrix(), p, opt)
	if err != nil {
		return nil, err
	}
	a := csr.FromBitMatrix(res.Matrix)
	comp, resid, err := venom.SplitToConform(a, p)
	if err != nil {
		return nil, err
	}
	// Gather B rows in the partition's reordered order: local row j
	// corresponds to original vertex orig[res.Perm[j]].
	localB := dense.NewMatrix(len(part), b.Cols)
	for j := 0; j < len(part); j++ {
		copy(localB.Row(j), b.Row(orig[res.Perm[j]]))
	}
	localC := spmm.VNM(comp, localB)
	if resid.NNZ() > 0 {
		localC.Add(spmm.CSR(resid, localB))
	}
	// Reorder back before accumulation (the paper's phrase): local row
	// j lands on global row orig[res.Perm[j]].
	rows := make([]int, len(part))
	for j := 0; j < len(part); j++ {
		rows[j] = orig[res.Perm[j]]
	}
	return &partOut{res: res, localC: localC, rows: rows}, nil
}

// crossPartitionPass adds the off-diagonal contributions on the CSR
// path: C[u] += B[v] for every edge (u, v) spanning partitions.
func crossPartitionPass(g *graph.Graph, b, c *dense.Matrix, partOf []int32) {
	bitmat.ParallelRows(g.N(), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			cr := c.Row(u)
			for _, v := range g.Neighbors(u) {
				if partOf[u] == partOf[v] {
					continue
				}
				br := b.Row(int(v))
				for j, bv := range br {
					cr[j] += bv
				}
			}
		}
	})
}
