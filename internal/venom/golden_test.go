package venom

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/csr"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// goldenPatterns spans V in {1, 2, 4, 8, 16}, N = 1 and N = M/2, M = K,
// and explicit K budgets below and above the default.
var goldenPatterns = []pattern.VNM{
	pattern.NM(2, 4),
	pattern.New(4, 2, 8),
	pattern.New(8, 2, 16),
	pattern.New(4, 1, 8),
	pattern.New(16, 2, 8),
	pattern.New(2, 2, 4),
	{V: 4, N: 2, M: 8, K: 2},
	{V: 8, N: 4, M: 16, K: 8},
}

// goldenMatrix draws a seeded n-by-n matrix. With ties set, values come
// from {0, ±0.5, ±1}: explicit zeros and equal magnitudes everywhere,
// so every tie-break rule of the split decides something. Every
// seventh row is left empty.
func goldenMatrix(n int, density float64, seed int64, ties bool) *csr.Matrix {
	rng := rand.New(rand.NewSource(seed))
	tieVals := []float32{0, 0.5, -0.5, 1, -1}
	var rows, cols []int32
	var vals []float32
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			continue
		}
		for j := 0; j < n; j++ {
			if rng.Float64() >= density {
				continue
			}
			v := rng.Float32()*2 - 1
			if ties {
				v = tieVals[rng.Intn(len(tieVals))]
			}
			rows = append(rows, int32(i))
			cols = append(cols, int32(j))
			vals = append(vals, v)
		}
	}
	m, err := csr.FromEntries(n, rows, cols, vals)
	if err != nil {
		panic(err)
	}
	return m
}

type goldenCase struct {
	name string
	a    *csr.Matrix
	p    pattern.VNM
}

// goldenCases is the seeded table the digests below pin: per pattern,
// uniform and tie-heavy matrices whose 61 rows leave a partial last
// block row for every V > 1, the all-ones adjacency the revised-pruned
// baseline prunes, a V-aligned row window, a conforming matrix, and an
// empty one.
func goldenCases() []goldenCase {
	var cases []goldenCase
	ones := csr.FromGraph(graph.ErdosRenyi(61, 0.2, 3))
	for pi, p := range goldenPatterns {
		uniform := goldenMatrix(61, 0.15, int64(100+pi), false)
		ties := goldenMatrix(61, 0.3, int64(200+pi), true)
		lo := 2 * p.V
		if lo > 61 {
			lo = 0
		}
		name := fmt.Sprintf("%v,K=%d/", p, p.EffK())
		cases = append(cases,
			goldenCase{name + "uniform", uniform, p},
			goldenCase{name + "ties", ties, p},
			goldenCase{name + "ones", ones, p},
			goldenCase{name + "window", ties.Window(lo, 61), p},
			goldenCase{name + "conforming", conformingMatrix(40, p, int64(300+pi)), p},
			goldenCase{name + "empty", goldenMatrix(16, 0, 1, false), p},
		)
	}
	zero, err := csr.FromEntries(0, nil, nil, nil)
	if err != nil {
		panic(err)
	}
	return append(cases, goldenCase{"0x0", zero, pattern.New(4, 2, 8)})
}

// digester folds integers and float bits into one FNV-1a 64 digest.
type digester struct{ h uint64 }

func newDigester() *digester { return &digester{h: fnv.New64a().Sum64()} }

func (d *digester) int(v int64) {
	for i := 0; i < 8; i++ {
		d.h ^= uint64(byte(v >> (8 * i)))
		d.h *= 1099511628211
	}
}

func (d *digester) ints(vs []int32) {
	d.int(int64(len(vs)))
	for _, v := range vs {
		d.int(int64(v))
	}
}

func (d *digester) floats(vs []float32) {
	d.int(int64(len(vs)))
	for _, v := range vs {
		d.int(int64(math.Float32bits(v)))
	}
}

func (d *digester) csr(m *csr.Matrix) {
	d.int(int64(m.N))
	d.ints(m.RowPtr)
	d.ints(m.ColIdx)
	d.floats(m.Val)
}

func (d *digester) venom(m *Matrix) {
	d.int(int64(m.N))
	d.int(int64(m.K))
	d.ints(m.BlockRowPtr)
	d.ints(m.BlockSeg)
	d.ints(m.BlockCols)
	d.floats(m.Values)
	d.int(int64(len(m.Meta)))
	for _, b := range m.Meta {
		d.int(int64(b))
	}
}

func (d *digester) String() string { return fmt.Sprintf("%016x", d.h) }

// goldenDigests returns the split, prune and compress digests of one
// case. A Compress rejection digests its block coordinates and kind
// (ConformError.RowNNZ is pinned by TestCompressRejectsViolations).
func goldenDigests(t *testing.T, c goldenCase) [3]string {
	t.Helper()
	comp, resid, err := SplitToConform(c.a, c.p)
	if err != nil {
		t.Fatalf("%s: split: %v", c.name, err)
	}
	split := newDigester()
	split.venom(comp)
	split.csr(resid)

	pruned, stats, err := PruneToConform(c.a, c.p)
	if err != nil {
		t.Fatalf("%s: prune: %v", c.name, err)
	}
	prune := newDigester()
	prune.csr(pruned)
	prune.int(int64(stats.TotalNNZ))
	prune.int(int64(stats.PrunedNNZ))

	compress := newDigester()
	m, err := Compress(c.a, c.p)
	var ce *ConformError
	switch {
	case err == nil:
		compress.venom(m)
	case errors.As(err, &ce):
		compress.int(int64(ce.BlockRow))
		compress.int(int64(ce.Seg))
		compress.int(int64(ce.Cols))
		if ce.RowNNZ > 0 {
			compress.int(-1)
		}
	default:
		t.Fatalf("%s: compress: %v", c.name, err)
	}
	return [3]string{split.String(), prune.String(), compress.String()}
}

// goldenWant holds {split, prune, compress} digests per case. A change
// here is a change in the bits the split produces.
var goldenWant = map[string][3]string{
	"2:4,K=4/uniform":       {"7ecbf49251099d66", "27901b99a95329a9", "b790942bae620a20"},
	"2:4,K=4/ties":          {"8e5bd6e334bb0a14", "eb68b27066ab35eb", "2fbc394a4f1b43bc"},
	"2:4,K=4/ones":          {"a9291bde094108db", "e33e47b16f8481d6", "ce1b2d390e7fcde7"},
	"2:4,K=4/window":        {"fa671c4316e6fd22", "b88fc05e12fe1261", "99a17fc6952af8c4"},
	"2:4,K=4/conforming":    {"65f89229091ad20e", "97238086ea4d3833", "a25d8d6cd9ebb66f"},
	"2:4,K=4/empty":         {"85124a2cd0e53861", "3e1be70d297b16c4", "801a89be647467e0"},
	"4:2:8,K=4/uniform":     {"22110c48353e0128", "635c0f98a2255958", "2fbc394a4f1b43bc"},
	"4:2:8,K=4/ties":        {"98332df1889f139a", "f54f64017d88c089", "24e1eabbdf6e44a2"},
	"4:2:8,K=4/ones":        {"e3223ef3efc9fae6", "1bbaea647513f50e", "d5e3d4f3cc592c61"},
	"4:2:8,K=4/window":      {"0e451de316b48194", "73d816406dc84133", "43dcb1c4ea5d8ec3"},
	"4:2:8,K=4/conforming":  {"fa54ae357a39c2d0", "52af6f724fe36644", "f1a0875c82b3d5f1"},
	"4:2:8,K=4/empty":       {"9fe92b062aacf9f5", "3e1be70d297b16c4", "8fbfdc78a6ca90f4"},
	"8:2:16,K=4/uniform":    {"164cc20409b2ef0c", "2792628d32b1ba52", "fdbd5bfb2bf94b89"},
	"8:2:16,K=4/ties":       {"43b3c7742873f46c", "1333d9afb06d8f2f", "3bb2ea0d41d7dfcb"},
	"8:2:16,K=4/ones":       {"b6299bd99253f50a", "a007e661278d9b53", "fdbd5bfb2bf94b89"},
	"8:2:16,K=4/window":     {"fcd2ea7da6cc1671", "c8396a279c20a6de", "fdbd5bfb2bf94b89"},
	"8:2:16,K=4/conforming": {"3b10dd38c34e4867", "70c440a96531a21b", "a28575dbf493c426"},
	"8:2:16,K=4/empty":      {"52f0c3e43edf81b3", "3e1be70d297b16c4", "8f66a17a9fe131f2"},
	"4:1:8,K=4/uniform":     {"9fdbecc8e38d1352", "4fae2a7f94c20d36", "27527c50b012d01d"},
	"4:1:8,K=4/ties":        {"e2e71bcfd5344ec8", "8e0e4200ccc3b0e7", "27527c50b012d01d"},
	"4:1:8,K=4/ones":        {"6be843cf2d12d173", "a379144718cd16e6", "27527c50b012d01d"},
	"4:1:8,K=4/window":      {"e88ad3901cbc4e37", "530cbb729399a489", "43dcb1c4ea5d8ec3"},
	"4:1:8,K=4/conforming":  {"a5eb5fd174f4ab31", "14639076644a91f7", "22bed65333eb9ab0"},
	"4:1:8,K=4/empty":       {"9fe92b062aacf9f5", "3e1be70d297b16c4", "8fbfdc78a6ca90f4"},
	"16:2:8,K=4/uniform":    {"6448ad6702d19ee9", "9cff0e2fd1b2ec23", "24e1eabbdf6e44a2"},
	"16:2:8,K=4/ties":       {"12cfafb4f375b810", "2b69850a93ddfd41", "24e1eabbdf6e44a2"},
	"16:2:8,K=4/ones":       {"70d08dfeb3d4bb6c", "86e04aad4bfc3d5a", "79a8781f57b6740d"},
	"16:2:8,K=4/window":     {"57c014c758beb821", "b0e8d20490412750", "79a8781f57b6740d"},
	"16:2:8,K=4/conforming": {"6086c317d82e807f", "134483aa1d14d7f5", "27e389c35ee0c73e"},
	"16:2:8,K=4/empty":      {"0eabd7f92e2b2df2", "3e1be70d297b16c4", "6b048f9aef0e2293"},
	"2:2:4,K=4/uniform":     {"75f87554acf0537e", "061ba81925283aac", "e9492682f87e9181"},
	"2:2:4,K=4/ties":        {"9044a436c9289779", "db6440b506f4a267", "cf603c7d07a09a3d"},
	"2:2:4,K=4/ones":        {"2130399c6c97c127", "e33e47b16f8481d6", "ce1b2d390e7fcde7"},
	"2:2:4,K=4/window":      {"edcfbc10648aee3a", "3242a708ac931fca", "c6ce15e40565c6bf"},
	"2:2:4,K=4/conforming":  {"92b65f356915af9a", "a4b4f5491a308147", "d0984aa3ecd1587b"},
	"2:2:4,K=4/empty":       {"19fd451619a06d79", "3e1be70d297b16c4", "9e9b0110f03bf1f8"},
	"4:2:8,K=2/uniform":     {"4825e49510baa02a", "d005ebcf5168695e", "a0cd06e00b2b6d26"},
	"4:2:8,K=2/ties":        {"77cf2ff4a6b7a23e", "ebebf0d758463397", "05e723b2d47efa81"},
	"4:2:8,K=2/ones":        {"63c0848b1e5b39cb", "8372653170ea0c42", "05e723b2d47efa81"},
	"4:2:8,K=2/window":      {"e8b6d751f5f594da", "f5e78dc8247e9d71", "e6ec5ca9c98fb060"},
	"4:2:8,K=2/conforming":  {"17a36ddec2d6a0f8", "d24f59f78d85d97e", "0683b76c99678c99"},
	"4:2:8,K=2/empty":       {"0c7a1828660922f3", "3e1be70d297b16c4", "c437289121300b32"},
	"8:4:16,K=8/uniform":    {"a2f031259b04bc7b", "c8eed8ab008806d5", "5aadb1164cc729ec"},
	"8:4:16,K=8/ties":       {"83b407660b302719", "864ade479c6ed3ed", "1cb8230436e895aa"},
	"8:4:16,K=8/ones":       {"4db0bf3a9ceb2006", "75a1ae2221aad6de", "fdbd5bfb2bf94b89"},
	"8:4:16,K=8/window":     {"aff834a31f7589d3", "3d54e20ef0709235", "3bb2ea0d41d7dfcb"},
	"8:4:16,K=8/conforming": {"98f878af893997e5", "6968a9977474b38b", "a6a8af70b6a29ae4"},
	"8:4:16,K=8/empty":      {"976e680bb1634ebf", "3e1be70d297b16c4", "3498e4a669cb377e"},
	"0x0":                   {"6a286eb94c819061", "41c7793ba3b56cc4", "06977dd0d22023e0"},
}

// TestGoldenDigests pins the exact bits of SplitToConform,
// PruneToConform and Compress over the seeded goldenCases table.
func TestGoldenDigests(t *testing.T) {
	cases := goldenCases()
	if len(cases) != len(goldenWant) {
		t.Errorf("%d cases, %d pinned digests", len(cases), len(goldenWant))
	}
	for _, c := range cases {
		got := goldenDigests(t, c)
		if want, ok := goldenWant[c.name]; !ok || got != want {
			t.Errorf("%q: {%q, %q, %q}, want %v", c.name, got[0], got[1], got[2], want)
		}
	}
}
