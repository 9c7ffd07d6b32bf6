package check

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/resil"
)

// DistEquivalence is the multi-process distribution oracle: it runs
// the in-process PartitionedSpMM as the reference, then the RPC
// coordinator against nWorkers loopback workers (real sockets, real
// serialization, no process boundary), and asserts bit identity. The
// argument is the same one FaultEquivalence makes for the recovery
// layer: computePartition is pure and partitions scatter into
// disjoint output rows, so WHERE a partition is computed — this
// process, a loopback socket away, or another machine — is invisible
// in the result bits. Any divergence is a serialization or protocol
// defect, never legitimate noise, which is what lets this oracle
// demand exact equality.
func DistEquivalence(g *graph.Graph, b *dense.Matrix, maxN int, p pattern.VNM, opt core.Options, nWorkers int) error {
	want, _, err := distributed.PartitionedSpMM(g, b, maxN, p, opt)
	if err != nil {
		return fmt.Errorf("check: in-process reference: %w", err)
	}
	var addrs []string
	for i := 0; i < nWorkers; i++ {
		addr, stop, err := distributed.StartLocalWorker(distributed.WorkerConfig{Workers: 1})
		if err != nil {
			return fmt.Errorf("check: start loopback worker %d: %w", i, err)
		}
		defer stop()
		addrs = append(addrs, addr)
	}
	cl, err := distributed.Dial(addrs)
	if err != nil {
		return fmt.Errorf("check: dial loopback cluster: %w", err)
	}
	defer cl.Close()
	got, err := cl.DistributedSpMM(g, b, maxN, p, opt, distributed.FaultConfig{
		Retry: resil.RetryPolicy{Backoff: -1},
	})
	if err != nil {
		return fmt.Errorf("check: distributed run: %w", err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("check: distributed result %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			return fmt.Errorf("check: distributed result diverges at flat index %d (row %d): %v != %v",
				i, i/want.Cols, got.Data[i], want.Data[i])
		}
	}
	return nil
}
