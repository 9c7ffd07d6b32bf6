package bench

// The dist suite measures the two claims the multi-process
// distribution layer makes (DESIGN.md §14):
//
//  1. Serialization: loading a large graph from its sogre-shard/v1
//     binary encoding is an order of magnitude faster than
//     regenerating it — the suite times generator vs loader on the
//     same ≥100k-node graph and reports the ratio (acceptance floor
//     10x).
//  2. Execution: the RPC coordinator over loopback workers produces
//     BIT-IDENTICAL results to the in-process partitioned path — the
//     suite embeds both result checksums per worker count, and they
//     must be equal; the timings quantify the RPC tax.
//
// Like every suite, the canonical projection zeroes timing fields so
// two runs of the same build are byte-comparable.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/resil"
	"repro/internal/shard"
)

// DistSchema names the dist suite's JSON schema.
const DistSchema = "sogre-bench-dist/v1"

// DistBenchConfig sizes a dist benchmark run.
type DistBenchConfig struct {
	Seed int64

	// Serialization row: SerFamily/SerN generate the large graph whose
	// binary load is raced against regeneration.
	SerFamily string
	SerN      int

	// Execution rows: ExecFamily/ExecN build the operand graph,
	// MaxN bounds partitions, Width is the dense operand width, and
	// Workers lists the loopback worker counts to sweep.
	ExecFamily string
	ExecN      int
	MaxN       int
	Width      int
	Pattern    pattern.VNM
	Workers    []int

	Repeats int // best-of timing repetitions

	// FixtureDir caches generated graphs as shard files ("" = fresh
	// temp dir, no reuse across runs).
	FixtureDir string
}

// DefaultDistConfig returns the checked-in workload: a 120k-node
// serialization race and a 3-point worker sweep, sized for seconds.
func DefaultDistConfig() DistBenchConfig {
	return DistBenchConfig{
		Seed:       20250806,
		SerFamily:  "ba",
		SerN:       120000,
		ExecFamily: "banded",
		ExecN:      1200,
		MaxN:       256,
		Width:      16,
		Pattern:    pattern.NM(2, 4),
		Workers:    []int{1, 2, 4},
		Repeats:    3,
	}
}

// Validate rejects configurations that cannot produce a suite.
func (c DistBenchConfig) Validate() error {
	switch {
	case c.SerN < 1:
		return fmt.Errorf("bench: dist SerN %d must be >= 1", c.SerN)
	case c.ExecN < 1:
		return fmt.Errorf("bench: dist ExecN %d must be >= 1", c.ExecN)
	case c.MaxN < 1:
		return fmt.Errorf("bench: dist MaxN %d must be >= 1", c.MaxN)
	case c.Width < 1:
		return fmt.Errorf("bench: dist Width %d must be >= 1", c.Width)
	case len(c.Workers) == 0:
		return fmt.Errorf("bench: dist Workers must be nonempty")
	case c.Repeats < 1:
		return fmt.Errorf("bench: dist Repeats %d must be >= 1", c.Repeats)
	}
	for _, w := range c.Workers {
		if w < 1 {
			return fmt.Errorf("bench: dist worker count %d must be >= 1", w)
		}
	}
	return c.Pattern.Validate()
}

// DistSerializationResult is the generator-vs-loader race row.
type DistSerializationResult struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	Arcs   int    `json:"arcs"`
	Bytes  int64  `json:"bytes"`
	// Checksum fingerprints the shard encoding; generation and load
	// agreeing on it is the row's embedded correctness claim.
	Checksum string `json:"checksum"`

	GenNs   float64 `json:"gen_ns"`
	WriteNs float64 `json:"write_ns"`
	LoadNs  float64 `json:"load_ns"`
	// Speedup is GenNs/LoadNs — the measured answer to "is binary
	// load worth it"; the acceptance floor is 10.
	Speedup float64 `json:"speedup"`
}

// DistExecResult is one loopback worker-count row.
type DistExecResult struct {
	Workers    int `json:"workers"`
	Partitions int `json:"partitions"`
	// InProcChecksum and DistChecksum are resil.Checksum over the two
	// result matrices, in hex. Equal by construction — a mismatch
	// means a serialization or protocol defect.
	InProcChecksum string `json:"inproc_checksum"`
	DistChecksum   string `json:"dist_checksum"`

	InProcNs float64 `json:"inproc_ns"`
	DistNs   float64 `json:"dist_ns"`
}

// DistSuite is the full dist benchmark output.
type DistSuite struct {
	Schema        string                    `json:"schema"`
	Seed          int64                     `json:"seed"`
	Pattern       string                    `json:"pattern"`
	GoMaxProcs    int                       `json:"gomaxprocs"`
	Serialization []DistSerializationResult `json:"serialization"`
	Exec          []DistExecResult          `json:"exec"`
}

// JSON renders the suite as indented JSON with a trailing newline.
func (s *DistSuite) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// RunDist executes the dist suite.
func RunDist(cfg DistBenchConfig) (*DistSuite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	suite := &DistSuite{
		Schema:     DistSchema,
		Seed:       cfg.Seed,
		Pattern:    fmt.Sprintf("%d:%d:%d", cfg.Pattern.V, cfg.Pattern.N, cfg.Pattern.M),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	ser, err := runDistSerialization(cfg)
	if err != nil {
		return nil, err
	}
	suite.Serialization = []DistSerializationResult{*ser}

	execRows, err := runDistExec(cfg)
	if err != nil {
		return nil, err
	}
	suite.Exec = execRows
	return suite, nil
}

func runDistSerialization(cfg DistBenchConfig) (*DistSerializationResult, error) {
	dir := cfg.FixtureDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "sogre-bench-dist")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	path := filepath.Join(dir, fmt.Sprintf("ser-%s-n%d-s%d.shard", cfg.SerFamily, cfg.SerN, cfg.Seed))

	var g *graph.Graph
	genNs := float64(0)
	for r := 0; r < cfg.Repeats; r++ {
		t0 := time.Now()
		gg, err := graph.GenerateByName(cfg.SerFamily, cfg.SerN, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if d := float64(time.Since(t0).Nanoseconds()); r == 0 || d < genNs {
			genNs = d
		}
		g = gg
	}

	t0 := time.Now()
	if err := shard.WriteGraphFile(path, g); err != nil {
		return nil, err
	}
	writeNs := float64(time.Since(t0).Nanoseconds())
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	wantEnc, err := shard.EncodeGraph(g)
	if err != nil {
		return nil, err
	}
	wantSum := shard.ChecksumBytes(wantEnc)

	loadNs := float64(0)
	for r := 0; r < cfg.Repeats; r++ {
		t0 := time.Now()
		lg, err := shard.ReadGraphFile(path)
		if err != nil {
			return nil, err
		}
		if d := float64(time.Since(t0).Nanoseconds()); r == 0 || d < loadNs {
			loadNs = d
		}
		gotEnc, err := shard.EncodeGraph(lg)
		if err != nil {
			return nil, err
		}
		if got := shard.ChecksumBytes(gotEnc); got != wantSum {
			return nil, fmt.Errorf("bench: loaded graph checksum %016x, want %016x", got, wantSum)
		}
	}

	return &DistSerializationResult{
		Family:   cfg.SerFamily,
		N:        g.N(),
		Arcs:     g.NumEdges(),
		Bytes:    st.Size(),
		Checksum: fmt.Sprintf("%016x", wantSum),
		GenNs:    genNs,
		WriteNs:  writeNs,
		LoadNs:   loadNs,
		Speedup:  genNs / loadNs,
	}, nil
}

func runDistExec(cfg DistBenchConfig) ([]DistExecResult, error) {
	g, err := graph.GenerateByName(cfg.ExecFamily, cfg.ExecN, cfg.Seed)
	if err != nil {
		return nil, err
	}
	b := dense.NewMatrix(g.N(), cfg.Width)
	b.Randomize(1, cfg.Seed)
	parts := core.BFSPartition(g, cfg.MaxN)

	var want *dense.Matrix
	inprocNs := float64(0)
	for r := 0; r < cfg.Repeats; r++ {
		t0 := time.Now()
		c, _, err := distributed.PartitionedSpMM(g, b, cfg.MaxN, cfg.Pattern, core.Options{})
		if err != nil {
			return nil, err
		}
		if d := float64(time.Since(t0).Nanoseconds()); r == 0 || d < inprocNs {
			inprocNs = d
		}
		want = c
	}
	wantSum := resil.Checksum(want.Data)

	var rows []DistExecResult
	for _, nw := range cfg.Workers {
		var addrs []string
		var stops []func()
		for i := 0; i < nw; i++ {
			addr, stop, err := distributed.StartLocalWorker(distributed.WorkerConfig{})
			if err != nil {
				return nil, err
			}
			stops = append(stops, stop)
			addrs = append(addrs, addr)
		}
		cl, err := distributed.Dial(addrs)
		if err != nil {
			return nil, err
		}

		var got *dense.Matrix
		distNs := float64(0)
		for r := 0; r < cfg.Repeats; r++ {
			t0 := time.Now()
			c, err := cl.DistributedSpMM(g, b, cfg.MaxN, cfg.Pattern, core.Options{}, distributed.FaultConfig{})
			if err != nil {
				return nil, err
			}
			if d := float64(time.Since(t0).Nanoseconds()); r == 0 || d < distNs {
				distNs = d
			}
			got = c
		}
		cl.Close()
		for _, stop := range stops {
			stop()
		}

		gotSum := resil.Checksum(got.Data)
		if gotSum != wantSum {
			return nil, fmt.Errorf("bench: dist result checksum %016x, want %016x (workers=%d)", gotSum, wantSum, nw)
		}
		rows = append(rows, DistExecResult{
			Workers:        nw,
			Partitions:     len(parts),
			InProcChecksum: fmt.Sprintf("%016x", wantSum),
			DistChecksum:   fmt.Sprintf("%016x", gotSum),
			InProcNs:       inprocNs,
			DistNs:         distNs,
		})
	}
	return rows, nil
}

// CanonicalDist returns a deep copy with timing fields zeroed, so two
// runs of the same build compare byte-identical.
func CanonicalDist(s *DistSuite) *DistSuite {
	c := *s
	c.Serialization = append([]DistSerializationResult(nil), s.Serialization...)
	c.Exec = append([]DistExecResult(nil), s.Exec...)
	for i := range c.Serialization {
		c.Serialization[i].GenNs = 0
		c.Serialization[i].WriteNs = 0
		c.Serialization[i].LoadNs = 0
		c.Serialization[i].Speedup = 0
	}
	for i := range c.Exec {
		c.Exec[i].InProcNs = 0
		c.Exec[i].DistNs = 0
	}
	return &c
}
