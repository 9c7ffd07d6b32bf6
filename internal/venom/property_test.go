package venom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/pattern"
)

// randomCSR builds an arbitrary (not necessarily conforming) sparse
// matrix.
func randomCSR(n int, density float64, seed int64) *csr.Matrix {
	rng := rand.New(rand.NewSource(seed))
	var rows, cols []int32
	var vals []float32
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				rows = append(rows, int32(i))
				cols = append(cols, int32(j))
				vals = append(vals, rng.Float32()*2-1)
			}
		}
	}
	m, err := csr.FromEntries(n, rows, cols, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func TestSplitToConformIsExactDecomposition(t *testing.T) {
	// Property: Decompress(compressed) + residual == A, for any matrix
	// and pattern.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(48)
		a := randomCSR(n, 0.05+rng.Float64()*0.15, seed)
		pats := []pattern.VNM{pattern.NM(2, 4), pattern.New(4, 2, 8), pattern.New(8, 2, 16)}
		p := pats[rng.Intn(len(pats))]
		comp, resid, err := SplitToConform(a, p)
		if err != nil {
			return false
		}
		back, err := comp.Decompress()
		if err != nil {
			return false
		}
		sum := back.ToDense()
		sum.Add(resid.ToDense())
		return dense.MaxAbsDiff(sum, a.ToDense()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSplitCompressedAlwaysConforms(t *testing.T) {
	f := func(seed int64) bool {
		a := randomCSR(40, 0.1, seed)
		p := pattern.NM(2, 4)
		comp, _, err := SplitToConform(a, p)
		if err != nil {
			return false
		}
		// Re-compressing the decompressed kept part must succeed.
		back, err := comp.Decompress()
		if err != nil {
			return false
		}
		if _, err := Compress(back, p); err != nil {
			return false
		}
		return comp.ValidateMeta() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPruneNeverIncreasesNNZ(t *testing.T) {
	f := func(seed int64) bool {
		a := randomCSR(32, 0.2, seed)
		pruned, stats, err := PruneToConform(a, pattern.NM(2, 4))
		if err != nil {
			return false
		}
		return pruned.NNZ()+stats.PrunedNNZ == a.NNZ() && pruned.NNZ() <= a.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestValidateMetaCatchesCorruption(t *testing.T) {
	// Failure injection: corrupt each structural field of a valid
	// compressed matrix and verify ValidateMeta reports it.
	p := pattern.New(4, 2, 8)
	a := conformingMatrix(64, p, 3)
	c, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumBlocks() == 0 {
		t.Skip("empty compression")
	}
	// Find a nonzero value slot.
	slot := -1
	for i, v := range c.Values {
		if v != 0 {
			slot = i
			break
		}
	}
	if slot < 0 {
		t.Skip("no nonzero slots")
	}

	t.Run("selector out of range", func(t *testing.T) {
		bad := *c
		bad.Meta = append([]uint8(nil), c.Meta...)
		bad.Meta[slot] = uint8(c.K)
		if bad.ValidateMeta() == nil {
			t.Error("out-of-range selector accepted")
		}
	})
	t.Run("column outside segment", func(t *testing.T) {
		bad := *c
		bad.BlockCols = append([]int32(nil), c.BlockCols...)
		// Move the first real column to another stripe.
		for i, col := range bad.BlockCols {
			if col >= 0 {
				bad.BlockCols[i] = (col + int32(p.M)) % int32(bad.N)
				break
			}
		}
		if bad.ValidateMeta() == nil {
			t.Error("out-of-segment column accepted")
		}
	})
	t.Run("value selecting padded column", func(t *testing.T) {
		// Build a block with a padded column and point a value at it.
		a2, err := csr.FromEntries(8, []int32{0}, []int32{1}, []float32{5})
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Compress(a2, pattern.NM(2, 4))
		if err != nil {
			t.Fatal(err)
		}
		c2.Meta[0] = 3 // only one real column (index 0); 3 is padding
		if c2.ValidateMeta() == nil {
			t.Error("padded-column selector accepted")
		}
	})
}

func TestCompressRejectsInvalidPattern(t *testing.T) {
	a := randomCSR(16, 0.05, 1)
	if _, err := Compress(a, pattern.VNM{V: 1, N: 2, M: 3}); err == nil {
		t.Error("want error for invalid pattern")
	}
	if _, _, err := PruneToConform(a, pattern.VNM{V: 0, N: 2, M: 4}); err == nil {
		t.Error("want error for invalid pattern")
	}
}

func TestDecompressRoundTripWeights(t *testing.T) {
	// Weighted values must survive the round trip exactly (no
	// quantization).
	p := pattern.NM(2, 8)
	a := conformingMatrix(32, p, 7)
	c, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < a.N; r++ {
		cols, vals := a.Row(r)
		for k, col := range cols {
			if back.At(r, int(col)) != vals[k] {
				t.Fatalf("value at (%d,%d) changed: %v -> %v", r, col, vals[k], back.At(r, int(col)))
			}
		}
	}
}

// TestBandSplitMatchesWholeSplit: the split of a V-aligned row window
// carries, bit for bit,
// the band's block rows of the whole-matrix split — blocks, columns,
// values, metadata and residual entries — including the last, partial
// band and bands with a nonempty residual.
func TestBandSplitMatchesWholeSplit(t *testing.T) {
	const n, band = 150, 32 // 150 = 4 full bands + a 22-row tail
	a := randomCSR(n, 0.08, 5)
	for _, p := range []pattern.VNM{pattern.NM(2, 4), pattern.New(4, 2, 8), pattern.New(8, 2, 16)} {
		whole, wholeResid, err := SplitToConform(a, p)
		if err != nil {
			t.Fatal(err)
		}
		residBands := 0
		for lo := 0; lo < n; lo += band {
			hi := min(lo+band, n)
			comp, resid, err := SplitToConform(a.Window(lo, hi), p)
			if err != nil {
				t.Fatalf("%v band [%d,%d): %v", p, lo, hi, err)
			}
			if comp.N != hi-lo || comp.K != whole.K || comp.P != whole.P {
				t.Fatalf("%v band [%d,%d): shape N=%d K=%d", p, lo, hi, comp.N, comp.K)
			}
			brLo, brHi := lo/p.V, (hi+p.V-1)/p.V
			bLo, bHi := int(whole.BlockRowPtr[brLo]), int(whole.BlockRowPtr[brHi])
			for br := brLo; br <= brHi; br++ {
				if comp.BlockRowPtr[br-brLo] != whole.BlockRowPtr[br]-int32(bLo) {
					t.Fatalf("%v band [%d,%d): block row pointer %d differs", p, lo, hi, br)
				}
			}
			vpb := p.V * p.N
			if !equalInts(comp.BlockSeg, whole.BlockSeg[bLo:bHi]) ||
				!equalInts(comp.BlockCols, whole.BlockCols[bLo*whole.K:bHi*whole.K]) ||
				!equalBits(comp.Values, whole.Values[bLo*vpb:bHi*vpb]) ||
				string(comp.Meta) != string(whole.Meta[bLo*vpb:bHi*vpb]) {
				t.Fatalf("%v band [%d,%d): compressed blocks differ from the whole split's", p, lo, hi)
			}
			if !resid.Equal(wholeResid.Window(lo, hi)) {
				t.Fatalf("%v band [%d,%d): residual differs from the whole split's rows", p, lo, hi)
			}
			if resid.NNZ() > 0 {
				residBands++
			}
		}
		if residBands == 0 {
			t.Fatalf("%v: no band had a residual; the operand exercises nothing", p)
		}
	}
}

func equalInts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalBits(a, b []float32) bool {
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
