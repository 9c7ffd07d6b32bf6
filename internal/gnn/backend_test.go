package gnn

import (
	"testing"

	"repro/internal/csr"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/venom"
)

// TestSymmetricOperandsBuiltOnce: on the symmetric GCN operator every
// engine reuses its forward operands for the transposed direction
// instead of building (and, for the SPTC and planned engines,
// V:N:M-splitting) a bitwise copy.
func TestSymmetricOperandsBuiltOnce(t *testing.T) {
	g, _, _ := testSetup(t, 64)
	w := csr.SymNormalized(g)
	p := pattern.NM(2, 4)
	for _, kind := range []EngineKind{EngineCSR, EngineSPTC, EngineAuto} {
		op, err := NewFactory(kind, p).Make(w)
		if err != nil {
			t.Fatal(err)
		}
		switch o := op.(type) {
		case *csrOperator:
			if o.wt != o.w {
				t.Errorf("%s: transposed CSR operand is a copy", kind)
			}
		case *sptcOperator:
			if o.compT != o.comp || o.resT != o.res {
				t.Errorf("%s: transposed split operands are a second split", kind)
			}
		case *plannedOperator:
			if o.bwd != o.fwd {
				t.Errorf("%s: transposed planner operands are a second split", kind)
			}
		default:
			t.Fatalf("%s: unexpected operator %T", kind, op)
		}
	}
}

// TestAsymmetricMulTMatchesTwoSplits: on the non-symmetric mean
// aggregator the SPTC operator still splits the transpose, and MulT
// stays bit-identical to running the hybrid kernel on a separate split
// of wᵀ.
func TestAsymmetricMulTMatchesTwoSplits(t *testing.T) {
	g, x, _ := testSetup(t, 64)
	w := csr.RowNormalized(g)
	if w.Transpose().Equal(w) {
		t.Fatal("fixture: RowNormalized is symmetric; pick an irregular graph")
	}
	p := pattern.NM(2, 4)
	f := NewFactory(EngineSPTC, p)
	f.Pool = sched.Serial()
	op, err := f.Make(w)
	if err != nil {
		t.Fatal(err)
	}
	if o := op.(*sptcOperator); o.compT == o.comp {
		t.Fatal("non-symmetric operator reused its forward split for the transpose")
	}
	compT, resT, err := venom.SplitToConform(w.Transpose(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := spmm.HybridPool(sched.Serial(), compT, resT, x)
	got := op.MulT(x)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("MulT diverges from the two-split reference at flat index %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}
