// Package venom implements the V:N:M compressed sparse format of the
// VENOM/Spatha line of work the paper executes on (Section 4.5): the
// matrix is a grid of V-by-M meta-blocks; each nonzero meta-block
// records the (at most K) columns it uses, and each of its rows packs
// at most N values together with 2-bit metadata indices selecting which
// of the K columns each value belongs to — exactly the operand layout
// the mma.sp instruction consumes.
//
// Compression is lossless for matrices conforming to the V:N:M pattern
// (which SOGRE reordering produces); PruneToConform implements the
// paper's lossy "revised-pruned" baseline that zeroes
// minimum-magnitude entries until the pattern holds.
package venom

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/csr"
	"repro/internal/pattern"
)

// Matrix is an n-by-n sparse matrix compressed in V:N:M form.
// Meta-blocks that are entirely zero are not stored; the block
// structure is itself CSR-indexed by block row. Splitting a row window
// (csr.Matrix.Window) compresses only that band: N is then the band's
// row count while column ids keep the parent matrix's numbering.
type Matrix struct {
	N int // rows
	P pattern.VNM
	K int // effective column budget per meta-block

	// BlockRowPtr indexes, per block row (V matrix rows), the range of
	// stored meta-blocks in the parallel arrays below.
	BlockRowPtr []int32
	// BlockSeg is each stored meta-block's segment (column stripe)
	// index.
	BlockSeg []int32
	// BlockCols holds K global column ids per stored block, padded with
	// -1 when the block uses fewer than K columns.
	BlockCols []int32
	// Values holds V*N packed values per stored block, row-major within
	// the block; rows with fewer than N nonzeros are zero-padded.
	Values []float32
	// Meta holds the 2-bit column-selector per packed value (stored one
	// per byte for simplicity; real hardware packs 16 per word). The
	// selector indexes into the block's BlockCols entries.
	Meta []uint8
}

// NumBlocks returns the number of stored meta-blocks.
func (m *Matrix) NumBlocks() int { return len(m.BlockSeg) }

// BlockRowBlocks returns the number of stored meta-blocks in block row
// br — the per-block-row work estimate the tile scheduler balances.
func (m *Matrix) BlockRowBlocks(br int) int {
	return int(m.BlockRowPtr[br+1] - m.BlockRowPtr[br])
}

// ValuesPerBlock returns V*N, the packed-value count per meta-block.
func (m *Matrix) ValuesPerBlock() int { return m.P.V * m.P.N }

// CompressedBytes estimates the storage footprint: values (4B), meta
// (2 bits), column ids (4B per K), block indices.
func (m *Matrix) CompressedBytes() int {
	return len(m.Values)*4 + len(m.Meta)/4 + len(m.BlockCols)*4 + len(m.BlockSeg)*4 + len(m.BlockRowPtr)*4
}

// ConformError reports where a matrix violates the V:N:M pattern.
type ConformError struct {
	BlockRow, Seg int
	Cols          int // distinct columns found (vertical violation), or 0
	RowNNZ        int // nonzeros found in a row vector (horizontal), or 0
}

func (e *ConformError) Error() string {
	if e.Cols > 0 {
		return fmt.Sprintf("venom: meta-block (row %d, seg %d) uses %d columns (vertical constraint)", e.BlockRow, e.Seg, e.Cols)
	}
	return fmt.Sprintf("venom: meta-block (row %d, seg %d) has a row with %d nonzeros (horizontal constraint)", e.BlockRow, e.Seg, e.RowNNZ)
}

// Compress losslessly converts a CSR matrix that conforms to the V:N:M
// pattern. It returns a *ConformError for the first meta-block that
// violates the pattern — conforming input is exactly what the SOGRE
// reordering produces. Explicitly stored zeros are ignored: they are
// numerically inert and, in the packed form, indistinguishable from
// padding.
func Compress(a *csr.Matrix, p pattern.VNM) (*Matrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out, resid := split(a, p)
	if ce := conformError(a, resid, p); ce != nil {
		return nil, ce
	}
	return out, nil
}

// conformError locates the first (block row, segment), in block-row
// then segment order, whose residual holds a nonzero. The split drops a
// nonzero exactly from the meta-blocks that break the pattern, so this
// is a's first violation; it is measured on a itself. It returns nil
// when every residual entry is an explicit zero.
func conformError(a, resid *csr.Matrix, p pattern.VNM) *ConformError {
	m := int32(p.M)
	var e *ConformError
	for r := 0; r < resid.N && (e == nil || r/p.V == e.BlockRow); r++ {
		cols, vals := resid.Row(r)
		for i, c := range cols {
			if vals[i] != 0 && (e == nil || int(c/m) < e.Seg) {
				e = &ConformError{BlockRow: r / p.V, Seg: int(c / m)}
			}
		}
	}
	if e == nil {
		return nil
	}
	var used uint64 // bit c%M: column c of the segment holds a nonzero
	for r := e.BlockRow * p.V; r < min(e.BlockRow*p.V+p.V, a.N); r++ {
		cols, vals := a.Row(r)
		nnz := 0
		for i, c := range cols {
			if vals[i] != 0 && int(c/m) == e.Seg {
				used |= 1 << uint(c%m)
				nnz++
			}
		}
		if nnz > p.N && e.RowNNZ == 0 {
			e.RowNNZ = nnz
		}
	}
	if cols := bits.OnesCount64(used); cols > p.EffK() {
		e.Cols, e.RowNNZ = cols, 0
	}
	return e
}

// DecompressError reports a structurally invalid packed entry found
// while expanding a compressed matrix: a nonzero value slot whose
// metadata selector resolves to a column id outside [0, N). It carries
// the block coordinates (block row, stored-block index) and the matrix
// row so a corrupted operand can be localized — the failure mode the
// fault-injection layer exercises and the recovery path classifies.
type DecompressError struct {
	BlockRow int   // block row (V matrix rows each)
	Block    int   // global stored-block index
	Row      int   // matrix row of the offending value
	Col      int32 // resolved (invalid) column id
}

func (e *DecompressError) Error() string {
	return fmt.Sprintf("venom: decompress: block %d (block row %d, matrix row %d) resolves to invalid column %d",
		e.Block, e.BlockRow, e.Row, e.Col)
}

// Decompress expands the compressed matrix back to CSR. A structurally
// invalid packed entry (possible only from a corrupted representation —
// Compress never produces one) is returned as a *DecompressError with
// its block coordinates rather than panicking, so callers on the
// recovery path can classify and retry.
func (m *Matrix) Decompress() (*csr.Matrix, error) {
	var rows, cols []int32
	var vals []float32
	vpb := m.ValuesPerBlock()
	blockRows := len(m.BlockRowPtr) - 1
	for br := 0; br < blockRows; br++ {
		for bi := m.BlockRowPtr[br]; bi < m.BlockRowPtr[br+1]; bi++ {
			base := int(bi) * vpb
			colBase := int(bi) * m.K
			for dr := 0; dr < m.P.V; dr++ {
				r := br*m.P.V + dr
				if r >= m.N {
					break
				}
				for s := 0; s < m.P.N; s++ {
					off := base + dr*m.P.N + s
					v := m.Values[off]
					if v == 0 {
						continue
					}
					c := m.BlockCols[colBase+int(m.Meta[off])]
					if c < 0 || int(c) >= m.N {
						return nil, &DecompressError{BlockRow: br, Block: int(bi), Row: r, Col: c}
					}
					rows = append(rows, int32(r))
					cols = append(cols, c)
					vals = append(vals, v)
				}
			}
		}
	}
	out, err := csr.FromEntries(m.N, rows, cols, vals)
	if err != nil {
		// Unreachable for in-range entries (rows/cols are bounds-checked
		// above), kept as a guard with context instead of a panic.
		return nil, fmt.Errorf("venom: decompress: %w", err)
	}
	return out, nil
}

// PruneStats reports what PruneToConform removed.
type PruneStats struct {
	TotalNNZ  int
	PrunedNNZ int
}

// Ratio returns the pruned fraction (the paper Table 5's "Prune
// ratio").
func (s PruneStats) Ratio() float64 {
	if s.TotalNNZ == 0 {
		return 0
	}
	return float64(s.PrunedNNZ) / float64(s.TotalNNZ)
}

// PruneToConform implements the revised-pruned baseline: a minus the
// residual of SplitToConform. Per meta-block it keeps the K columns
// with the largest total magnitude, then per row vector the N
// largest-magnitude entries. The result conforms to the pattern by
// construction but is lossy — exactly the error source Table 5
// quantifies.
func PruneToConform(a *csr.Matrix, p pattern.VNM) (*csr.Matrix, PruneStats, error) {
	if err := p.Validate(); err != nil {
		return nil, PruneStats{}, err
	}
	_, resid := split(a, p)
	out := &csr.Matrix{N: a.N, RowPtr: make([]int32, a.N+1)}
	for r := 0; r < a.N; r++ {
		cols, vals := a.Row(r)
		dropped, _ := resid.Row(r) // an ordered subsequence of cols
		for i, c := range cols {
			if len(dropped) > 0 && dropped[0] == c {
				dropped = dropped[1:]
				continue
			}
			out.ColIdx = append(out.ColIdx, c)
			out.Val = append(out.Val, vals[i])
		}
		out.RowPtr[r+1] = int32(len(out.ColIdx))
	}
	return out, PruneStats{TotalNNZ: a.NNZ(), PrunedNNZ: resid.NNZ()}, nil
}

// SplitToConform losslessly splits a matrix into a V:N:M-conforming
// part (compressed) and a residual CSR holding every entry that did not
// fit the pattern: A = Decompress(compressed) + residual. After SOGRE
// reordering the residual is empty or tiny; the hybrid lets the SPTC
// kernel run the conforming bulk while CUDA cores mop up the rest,
// keeping execution lossless even on matrices that never fully conform.
//
// a may be a row window a.Window(lo, hi) of a larger matrix. The split
// is a pure per-block-row function, so when lo is a multiple of p.V
// (and hi is too, or is the last row) the window's split is
// bit-identical to the band's block rows of the whole matrix's split:
// the same blocks, columns, values, metadata and residual entries.
func SplitToConform(a *csr.Matrix, p pattern.VNM) (*Matrix, *csr.Matrix, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	comp, resid := split(a, p)
	return comp, resid, nil
}

// colMag is one column of a segment and its magnitude sum over a block
// row; lo and hi bound its entries in the block row's sorted keys.
type colMag struct {
	col    int32
	mag    float64
	lo, hi int
}

// split makes the V:N:M decision of every block row in one pass over
// its V CSR rows (whose columns are sorted and distinct):
//
//  1. stable-sort the block row's entry offsets by column;
//  2. per segment, keep the K columns with the largest float64 |value|
//     sum, summed in row order, ties to the lower column;
//  3. per (row, segment), keep the N largest-magnitude entries in kept
//     columns, ties to the lower column;
//  4. pack each segment's surviving nonzeros into a meta-block whose
//     columns are those holding one, and emit every dropped entry to
//     the residual in row order.
//
// Surviving explicit zeros are neither packed nor residual.
func split(a *csr.Matrix, p pattern.VNM) (*Matrix, *csr.Matrix) {
	k := p.EffK()
	m := int32(p.M)
	n := a.N
	blockRows := (n + p.V - 1) / p.V
	vpb := p.V * p.N
	out := &Matrix{N: n, P: p, K: k, BlockRowPtr: make([]int32, blockRows+1)}
	res := &csr.Matrix{N: n, RowPtr: make([]int32, n+1)}
	var (
		keys  []uint64 // column<<32 | offset within the block row
		keep  []bool   // per offset: the entry survives
		row   []int    // per offset: its row within the block row
		cands []colMag // one segment's columns
		group []int32  // one (row, segment)'s offsets in kept columns
	)
	fill := make([]int, p.V) // per row: slots used in the open meta-block
	absAt := func(off int32) float64 { return math.Abs(float64(a.Val[off])) }
	for br := 0; br < blockRows; br++ {
		rLo := br * p.V
		rHi := min(rLo+p.V, n)
		base := a.RowPtr[rLo]
		cnt := int(a.RowPtr[rHi] - base)
		keys = keys[:0]
		for off := 0; off < cnt; off++ {
			keys = append(keys, uint64(a.ColIdx[int(base)+off])<<32|uint64(off))
		}
		slices.Sort(keys) // offsets are distinct, so this sort is stable
		colOf := func(i int) int32 { return int32(keys[i] >> 32) }
		offOf := func(i int) int32 { return base + int32(uint32(keys[i])) }
		keep = append(keep[:0], make([]bool, cnt)...)
		row = append(row[:0], make([]int, cnt)...)

		// Vertical: the top-K columns of each segment.
		for i := 0; i < len(keys); {
			seg := colOf(i) / m
			cands = cands[:0]
			for i < len(keys) && colOf(i)/m == seg {
				c := colMag{col: colOf(i), lo: i}
				for ; i < len(keys) && colOf(i) == c.col; i++ {
					c.mag += absAt(offOf(i))
				}
				c.hi = i
				cands = append(cands, c)
			}
			if len(cands) > k {
				slices.SortFunc(cands, func(x, y colMag) int {
					return cmp.Or(cmp.Compare(y.mag, x.mag), cmp.Compare(x.col, y.col))
				})
				cands = cands[:k]
			}
			for _, c := range cands {
				for j := c.lo; j < c.hi; j++ {
					keep[offOf(j)-base] = true
				}
			}
		}

		// Horizontal: the top-N kept entries of each row vector; a row's
		// survivors are then final, so its residual is emitted here.
		for r := rLo; r < rHi; r++ {
			lo, hi := a.RowPtr[r], a.RowPtr[r+1]
			for off := lo; off < hi; {
				seg := a.ColIdx[off] / m
				group = group[:0]
				for ; off < hi && a.ColIdx[off]/m == seg; off++ {
					row[off-base] = r - rLo
					if keep[off-base] {
						group = append(group, off)
					}
				}
				if len(group) > p.N {
					slices.SortFunc(group, func(x, y int32) int {
						return cmp.Or(cmp.Compare(absAt(y), absAt(x)), cmp.Compare(x, y))
					})
					for _, off := range group[p.N:] {
						keep[off-base] = false
					}
				}
			}
			for off := lo; off < hi; off++ {
				if !keep[off-base] {
					res.ColIdx = append(res.ColIdx, a.ColIdx[off])
					res.Val = append(res.Val, a.Val[off])
				}
			}
			res.RowPtr[r+1] = int32(len(res.ColIdx))
		}

		// Pack: a segment's first surviving nonzero opens its meta-block;
		// each column holding one takes the next selector.
		for i := 0; i < len(keys); {
			seg := colOf(i) / m
			blk, cols := -1, 0
			for i < len(keys) && colOf(i)/m == seg {
				c, sel := colOf(i), -1
				for ; i < len(keys) && colOf(i) == c; i++ {
					off := offOf(i)
					v := a.Val[off]
					if !keep[off-base] || v == 0 {
						continue
					}
					if blk < 0 {
						blk = len(out.BlockSeg)
						out.BlockSeg = append(out.BlockSeg, seg)
						for range k {
							out.BlockCols = append(out.BlockCols, -1)
						}
						out.Values = append(out.Values, make([]float32, vpb)...)
						out.Meta = append(out.Meta, make([]uint8, vpb)...)
						clear(fill)
					}
					if sel < 0 {
						sel = cols
						cols++
						out.BlockCols[blk*k+sel] = c
					}
					dr := row[off-base]
					slot := blk*vpb + dr*p.N + fill[dr]
					fill[dr]++
					out.Values[slot] = v
					out.Meta[slot] = uint8(sel)
				}
			}
		}
		out.BlockRowPtr[br+1] = int32(len(out.BlockSeg))
	}
	return out, res
}

// ValidateMeta checks the structural invariants of the compressed
// representation: selectors in range, selected columns inside the
// block's stripe, padded slots zero. It mirrors the metadata checks the
// SPTC hardware performs when loading sparse fragments.
func (m *Matrix) ValidateMeta() error {
	vpb := m.ValuesPerBlock()
	for bi := 0; bi < m.NumBlocks(); bi++ {
		seg := m.BlockSeg[bi]
		nCols := 0
		for i := 0; i < m.K; i++ {
			c := m.BlockCols[bi*m.K+i]
			if c < 0 {
				continue
			}
			nCols++
			if c/int32(m.P.M) != seg {
				return fmt.Errorf("venom: block %d column %d outside segment %d", bi, c, seg)
			}
		}
		if nCols > m.K {
			return fmt.Errorf("venom: block %d uses %d columns > K=%d", bi, nCols, m.K)
		}
		for off := bi * vpb; off < (bi+1)*vpb; off++ {
			sel := int(m.Meta[off])
			if sel >= m.K {
				return fmt.Errorf("venom: block %d metadata selector %d out of range", bi, sel)
			}
			if m.Values[off] != 0 && m.BlockCols[bi*m.K+sel] < 0 {
				return fmt.Errorf("venom: block %d value selects padded column", bi)
			}
		}
	}
	return nil
}

// DensityInBlocks returns the fraction of packed value slots holding
// actual nonzeros — the padding waste the SPTC pays on ultra-sparse
// matrices (the Figure-4 slowdown regime).
func (m *Matrix) DensityInBlocks() float64 {
	if len(m.Values) == 0 {
		return 0
	}
	nz := 0
	for _, v := range m.Values {
		if v != 0 {
			nz++
		}
	}
	return float64(nz) / float64(len(m.Values))
}

// MetaBits returns the metadata storage in bits: ceil(log2 K) bits per
// packed slot (2 bits for the default K = 4), matching the SPTC index
// representation.
func (m *Matrix) MetaBits() int {
	return len(m.Meta) * bits.Len(uint(m.K-1))
}
