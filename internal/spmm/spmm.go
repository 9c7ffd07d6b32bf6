// Package spmm provides the SpMM kernels the paper's evaluation
// compares: the CUDA-core CSR kernel (the cuSPARSE baseline PyG/DGL
// default to), the sparse-tensor-core kernel over V:N:M compressed
// operands (the Spatha stand-in), and a dense reference. Every kernel
// computes C = A x B for a sparse n-by-n A and dense n-by-h B, returns
// the same numerical result, and reports both measured wall time and
// modeled GPU cycles (see internal/sptc).
//
// Each kernel comes in two forms: a single-goroutine serial reference
// (XxxSerial) and a parallel version executed on the internal/sched
// tiled work-stealing engine (Xxx / XxxPool). The parallel forms are
// bit-deterministic: tiles own disjoint output rectangles and
// accumulate each element in the serial operand order, so for any
// worker count and tile size the parallel result equals the serial
// reference exactly (internal/check enforces this bitwise).
//
// A may also be a row window of a larger square matrix
// (csr.Matrix.Window, or venom.SplitToConform of one): C then has only the window's
// rows, A's column ids index B's rows, and every element of C carries
// the bits of the same row of the full product.
package spmm

import (
	"fmt"
	"time"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/sched"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// axpy accumulates dst[j] += v * src[j] over the row slice, unrolled
// by 4 on the dense dimension. The unroll never changes accumulation
// order for any single output element (each dst[j] still receives its
// contributions in the caller's operand order), so every kernel built
// on it keeps the bitwise serial-equality contract while cutting loop
// overhead on the hot inner loop.
func axpy(dst, src []float32, v float32) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	dst = dst[:n]
	src = src[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		dst[j] += v * src[j]
		dst[j+1] += v * src[j+1]
		dst[j+2] += v * src[j+2]
		dst[j+3] += v * src[j+3]
	}
	for ; j < n; j++ {
		dst[j] += v * src[j]
	}
}

// CSRSerial computes C = A x B with a single-threaded CSR kernel
// (reference implementation).
func CSRSerial(a *csr.Matrix, b *dense.Matrix) *dense.Matrix {
	c := dense.NewMatrix(a.N, b.Cols)
	CSRSerialInto(c, a, b)
	return c
}

// CSRSerialInto computes C = A x B into a caller-provided (typically
// arena-reused, see dense.Arena) output matrix, zeroing it first. c
// must be a.N rows by b.Cols columns.
func CSRSerialInto(c *dense.Matrix, a *csr.Matrix, b *dense.Matrix) {
	checkOut(c, a.N, b.Cols)
	c.Zero()
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		cr := c.Row(i)
		for k, col := range cols {
			br := b.Row(int(col))
			axpy(cr, br, vals[k])
		}
	}
}

// CSRGatherInto computes only the listed rows of A x B on a single
// goroutine: row k of c is row rows[k] of the product. c must be
// len(rows) by b.Cols. Each row runs the CSRSerialInto row loop, so
// its bits equal the same row of every CSR kernel's output.
func CSRGatherInto(c *dense.Matrix, a *csr.Matrix, rows []int, b *dense.Matrix) {
	checkOut(c, len(rows), b.Cols)
	c.Zero()
	for k, i := range rows {
		cols, vals := a.Row(i)
		cr := c.Row(k)
		for j, col := range cols {
			axpy(cr, b.Row(int(col)), vals[j])
		}
	}
}

// checkOut validates a caller-provided output matrix's shape.
func checkOut(c *dense.Matrix, rows, cols int) {
	if c.Rows != rows || c.Cols != cols {
		panic(fmt.Sprintf("spmm: output matrix is %dx%d, want %dx%d", c.Rows, c.Cols, rows, cols))
	}
}

// CSR computes C = A x B with the row-parallel CSR kernel — the
// cuSPARSE CSR-SpMM (CUSPARSE_SPMM_CSR_ALG2) stand-in — on the default
// GOMAXPROCS-sized pool.
func CSR(a *csr.Matrix, b *dense.Matrix) *dense.Matrix {
	return CSRPool(sched.Default(), a, b)
}

// CSRPool computes C = A x B on an explicit scheduler pool, tiling
// rows by nonzero count (heavy rows split across B's columns, light
// rows batched). A tile panic (an injected fault or a genuine bug) is
// contained by the pool and re-raised here on the calling goroutine as
// a *sched.TileError — recoverable by the caller, with the pool left
// usable.
func CSRPool(p *sched.Pool, a *csr.Matrix, b *dense.Matrix) *dense.Matrix {
	c := dense.NewMatrix(a.N, b.Cols)
	CSRPoolInto(p, c, a, b)
	return c
}

// CSRPoolInto computes the parallel CSR kernel into a caller-provided
// output matrix (zeroed first), letting dispatch loops reuse one
// arena-allocated output instead of paying an allocation per call.
func CSRPoolInto(p *sched.Pool, c *dense.Matrix, a *csr.Matrix, b *dense.Matrix) {
	p.Obs().Counter("spmm/dispatch/csr").Inc()
	checkOut(c, a.N, b.Cols)
	c.Zero()
	h := b.Cols
	err := p.RunTiles(a.N, h, int64(a.NNZ()), func(r int) int64 { return int64(a.RowNNZ(r)) }, func(t sched.Tile) {
		for i := t.RowLo; i < t.RowHi; i++ {
			cols, vals := a.Row(i)
			cr := c.Data[i*h+t.ColLo : i*h+t.ColHi]
			for k, col := range cols {
				br := b.Data[int(col)*h+t.ColLo : int(col)*h+t.ColHi]
				axpy(cr, br, vals[k])
			}
		}
	})
	if err != nil {
		panic(err)
	}
}

// VNMSerial computes C = A x B over the V:N:M compressed
// representation on a single goroutine — the serial twin the parallel
// kernel is checked against.
func VNMSerial(m *venom.Matrix, b *dense.Matrix) *dense.Matrix {
	c := dense.NewMatrix(m.N, b.Cols)
	vnmTile(m, b, c, sched.Tile{RowLo: 0, RowHi: len(m.BlockRowPtr) - 1, ColLo: 0, ColHi: b.Cols})
	return c
}

// VNM computes C = A x B over the V:N:M compressed representation,
// mirroring the SPTC execution structure: block rows in parallel (one
// warp each), packed values with metadata-selected columns reused
// across the block's V rows. The regular, compact access pattern is
// what makes this kernel fast on sparse tensor cores; on a CPU (which
// lacks that hardware) it runs at rough parity with CSR, and the
// hardware advantage is captured by the cycle model instead.
func VNM(m *venom.Matrix, b *dense.Matrix) *dense.Matrix {
	return VNMPool(sched.Default(), m, b)
}

// VNMPool computes the V:N:M kernel on an explicit scheduler pool,
// tiling block rows by their stored-slot count.
func VNMPool(p *sched.Pool, m *venom.Matrix, b *dense.Matrix) *dense.Matrix {
	c := dense.NewMatrix(m.N, b.Cols)
	VNMPoolInto(p, c, m, b)
	return c
}

// VNMPoolInto computes the parallel V:N:M kernel into a caller-provided
// output matrix (zeroed first).
func VNMPoolInto(p *sched.Pool, c *dense.Matrix, m *venom.Matrix, b *dense.Matrix) {
	p.Obs().Counter("spmm/dispatch/vnm").Inc()
	checkOut(c, m.N, b.Cols)
	c.Zero()
	blockRows := len(m.BlockRowPtr) - 1
	vpb := int64(m.ValuesPerBlock())
	err := p.RunTiles(blockRows, b.Cols, int64(m.NumBlocks())*vpb,
		func(br int) int64 { return int64(m.BlockRowBlocks(br)) * vpb },
		func(t sched.Tile) { vnmTile(m, b, c, t) })
	if err != nil {
		panic(err)
	}
}

// vnmTile executes the compressed kernel over one output tile: block
// rows [RowLo, RowHi) restricted to output columns [ColLo, ColHi).
// Block rows map to disjoint matrix-row ranges, so tiles from a
// partition never share an output element.
func vnmTile(m *venom.Matrix, b, c *dense.Matrix, t sched.Tile) {
	vpb := m.ValuesPerBlock()
	h := b.Cols
	nVals := m.P.N
	bData := b.Data
	cData := c.Data
	for br := t.RowLo; br < t.RowHi; br++ {
		rowBase := br * m.P.V
		vRows := m.P.V
		if rowBase+vRows > m.N {
			vRows = m.N - rowBase
		}
		for bi := m.BlockRowPtr[br]; bi < m.BlockRowPtr[br+1]; bi++ {
			colBase := int(bi) * m.K
			valBase := int(bi) * vpb
			for dr := 0; dr < vRows; dr++ {
				cr := cData[(rowBase+dr)*h+t.ColLo : (rowBase+dr)*h+t.ColHi]
				off := valBase + dr*nVals
				for s := 0; s < nVals; s++ {
					v := m.Values[off+s]
					if v == 0 {
						continue
					}
					col := int(m.BlockCols[colBase+int(m.Meta[off+s])])
					brow := bData[col*h+t.ColLo : col*h+t.ColHi]
					axpy(cr, brow, v)
				}
			}
		}
	}
}

// HybridSerial computes the V:N:M/SPTC hybrid C = (comp + resid) x B
// serially: the compressed kernel plus the CSR residual for entries
// outside the pattern.
func HybridSerial(comp *venom.Matrix, resid *csr.Matrix, b *dense.Matrix) *dense.Matrix {
	c := VNMSerial(comp, b)
	if resid != nil && resid.NNZ() > 0 {
		c.Add(CSRSerial(resid, b))
	}
	return c
}

// HybridSerialInto computes the serial hybrid kernel into a
// caller-provided output matrix, with an optional reusable scratch for
// the residual product (same summation order as HybridSerial).
func HybridSerialInto(c, scratch *dense.Matrix, comp *venom.Matrix, resid *csr.Matrix, b *dense.Matrix) {
	checkOut(c, comp.N, b.Cols)
	c.Zero()
	vnmTile(comp, b, c, sched.Tile{RowLo: 0, RowHi: len(comp.BlockRowPtr) - 1, ColLo: 0, ColHi: b.Cols})
	if resid != nil && resid.NNZ() > 0 {
		if scratch == nil {
			scratch = dense.NewMatrix(resid.N, b.Cols)
		}
		CSRSerialInto(scratch, resid, b)
		c.Add(scratch)
	}
}

// Hybrid computes the V:N:M/SPTC hybrid on the default pool.
func Hybrid(comp *venom.Matrix, resid *csr.Matrix, b *dense.Matrix) *dense.Matrix {
	return HybridPool(sched.Default(), comp, resid, b)
}

// HybridPool computes the V:N:M/SPTC hybrid on an explicit pool. Both
// summands are bit-deterministic and the final element-wise Add runs
// in index order, so the hybrid matches HybridSerial exactly.
func HybridPool(p *sched.Pool, comp *venom.Matrix, resid *csr.Matrix, b *dense.Matrix) *dense.Matrix {
	c := dense.NewMatrix(comp.N, b.Cols)
	HybridPoolInto(p, c, nil, comp, resid, b)
	return c
}

// HybridPoolInto computes the hybrid kernel into a caller-provided
// output matrix. scratch, when non-nil, is reused for the residual
// CSR product (it must match c's shape); the residual product is
// always computed separately and element-wise added — accumulating the
// residual directly into c would change float32 summation order and
// break the bitwise HybridSerial contract.
func HybridPoolInto(p *sched.Pool, c, scratch *dense.Matrix, comp *venom.Matrix, resid *csr.Matrix, b *dense.Matrix) {
	p.Obs().Counter("spmm/dispatch/hybrid").Inc()
	VNMPoolInto(p, c, comp, b)
	if resid != nil && resid.NNZ() > 0 {
		if scratch == nil {
			scratch = dense.NewMatrix(resid.N, b.Cols)
		}
		CSRPoolInto(p, scratch, resid, b)
		c.Add(scratch)
	}
}

// Dense computes C = A x B from a dense copy of A (reference and
// dense-tensor-core comparison point).
func Dense(a, b *dense.Matrix) *dense.Matrix {
	return dense.MatMul(a, b)
}

// Report carries one kernel execution's outcome: the result, wall
// time, and modeled GPU cycles under the SPTC cost model.
type Report struct {
	C       *dense.Matrix
	Wall    time.Duration
	Cycles  float64
	Kernel  string
	Details string
}

// RunCSR executes and reports the CSR kernel.
func RunCSR(a *csr.Matrix, b *dense.Matrix, cm sptc.CostModel) Report {
	start := time.Now()
	c := CSR(a, b)
	return Report{
		C:      c,
		Wall:   time.Since(start),
		Cycles: cm.CSRSpMMCycles(a.NNZ(), a.N, b.Cols),
		Kernel: "csr-cuda",
	}
}

// RunVNM executes and reports the SPTC kernel over a compressed
// matrix.
func RunVNM(m *venom.Matrix, b *dense.Matrix, cm sptc.CostModel) Report {
	start := time.Now()
	c := VNM(m, b)
	return Report{
		C:      c,
		Wall:   time.Since(start),
		Cycles: cm.VNMSpMMCycles(sptc.Stats(m, cm), b.Cols),
		Kernel: "vnm-sptc",
	}
}
