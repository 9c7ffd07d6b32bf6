// Command sogre-dist is the distribution coordinator CLI: it dials a
// set of sogre-worker processes, ships them a checksummed
// sogre-shard/v1 graph plus dense operand, fans the BFS partitions out
// over RPC with retry/speculation/fallback, and prints a checksum
// digest of the assembled result.
//
// Usage:
//
//	sogre-dist -workers ADDR[,ADDR...] [-in graph.{mtx,edges,shard} | -gen banded -n 2048]
//	           [-seed 20250806] [-maxn 256] [-width 16] [-pattern 2:4]
//	           [-retries 3] [-spec-after 0] [-check] [-digest PATH]
//
// Worker addresses may also be ready-file paths written by
// `sogre-worker -ready-file` (anything that stats as a file is read as
// one). -check recomputes the result in-process and fails unless the
// two are bit-identical — the acceptance oracle the smoke gate runs
// around a kill -9'd worker. -digest writes the result checksum line
// to PATH so two runs can be compared byte-for-byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/resil"
	"repro/internal/shard"
)

func main() {
	workersFlag := flag.String("workers", "", "comma-separated worker addresses or ready-file paths")
	in := flag.String("in", "", "graph file: MatrixMarket, edge list, or sogre-shard/v1 (overrides -gen)")
	gen := flag.String("gen", "banded", "generator family for a synthetic graph")
	n := flag.Int("n", 2048, "synthetic graph size")
	seed := flag.Int64("seed", 20250806, "generator/operand seed")
	maxN := flag.Int("maxn", 256, "max vertices per BFS partition")
	width := flag.Int("width", 16, "dense operand width")
	pat := flag.String("pattern", "2:4", "target pattern, N:M or V:N:M")
	retries := flag.Int("retries", 3, "max dispatch attempts per partition across workers")
	specAfter := flag.Duration("spec-after", 0, "straggler deadline before a backup dispatch (0 disables)")
	check := flag.Bool("check", false, "recompute in-process and require bit-identical results")
	digest := flag.String("digest", "", "write the result checksum line to this path")
	flag.Parse()

	if err := run(*workersFlag, *in, *gen, *n, *seed, *maxN, *width, *pat,
		*retries, *specAfter, *check, *digest); err != nil {
		fmt.Fprintf(os.Stderr, "sogre-dist: %v\n", err)
		os.Exit(1)
	}
}

func run(workersFlag, in, gen string, n int, seed int64, maxN, width int, pat string,
	retries int, specAfter time.Duration, check bool, digest string) error {

	if workersFlag == "" {
		return fmt.Errorf("-workers is required (comma-separated addresses or ready files)")
	}
	addrs, err := resolveWorkers(workersFlag)
	if err != nil {
		return err
	}
	p, err := pattern.Parse(pat)
	if err != nil {
		return err
	}
	g, err := loadGraph(in, gen, n, seed)
	if err != nil {
		return err
	}
	b := dense.NewMatrix(g.N(), width)
	b.Randomize(1, seed)

	cl, err := distributed.Dial(addrs)
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Fprintf(os.Stderr, "dialed %d workers (%d live), n=%d width=%d maxn=%d pattern=%s\n",
		len(addrs), len(cl.LiveWorkers()), g.N(), width, maxN, p)

	t0 := time.Now()
	c, err := cl.DistributedSpMM(g, b, maxN, p, core.Options{}, distributed.FaultConfig{
		Retry:          resil.RetryPolicy{Max: retries},
		StragglerAfter: specAfter,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)

	sum := resil.Checksum(c.Data)
	line := fmt.Sprintf("checksum=%016x rows=%d cols=%d\n", sum, c.Rows, c.Cols)
	fmt.Printf("dist %selapsed=%s live_workers=%d\n", line[:len(line)-1]+" ", elapsed, len(cl.LiveWorkers()))

	if check {
		want, _, err := distributed.PartitionedSpMM(g, b, maxN, p, core.Options{})
		if err != nil {
			return err
		}
		if wsum := resil.Checksum(want.Data); wsum != sum {
			return fmt.Errorf("distributed result checksum %016x differs from in-process %016x", sum, wsum)
		}
		for i := range want.Data {
			if want.Data[i] != c.Data[i] {
				return fmt.Errorf("distributed result differs from in-process at flat index %d", i)
			}
		}
		fmt.Println("check: bit-identical to in-process PartitionedSpMM")
	}
	if digest != "" {
		if err := os.WriteFile(digest, []byte(line), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// resolveWorkers expands each comma-separated entry: a path that stats
// as a regular file is read as a ready file (first line = address),
// anything else is taken as a literal address.
func resolveWorkers(s string) ([]string, error) {
	var addrs []string
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		if st, err := os.Stat(ent); err == nil && st.Mode().IsRegular() {
			raw, err := os.ReadFile(ent)
			if err != nil {
				return nil, err
			}
			addr := strings.TrimSpace(strings.SplitN(string(raw), "\n", 2)[0])
			if addr == "" {
				return nil, fmt.Errorf("ready file %s is empty", ent)
			}
			addrs = append(addrs, addr)
			continue
		}
		addrs = append(addrs, ent)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no worker addresses in %q", s)
	}
	return addrs, nil
}

// loadGraph mirrors sogre-serve's sniffing loader: sogre-shard/v1,
// MatrixMarket, or plain edge list; without -in a synthetic graph.
func loadGraph(in, gen string, n int, seed int64) (*graph.Graph, error) {
	if in == "" {
		return graph.GenerateByName(gen, n, seed)
	}
	head := make([]byte, 16)
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	k, _ := io.ReadFull(f, head)
	f.Close()
	switch {
	case k >= 8 && string(head[:8]) == "sogresh1":
		return shard.ReadGraphFile(in)
	case k >= 2 && string(head[:2]) == "%%":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadMatrixMarket(f)
	default:
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	}
}
