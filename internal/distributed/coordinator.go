package distributed

import (
	"fmt"
	"net/rpc"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/resil"
	"repro/internal/sched"
	"repro/internal/shard"
)

// ring is a consistent-hash ring over worker indices: each worker
// contributes ringVirtual virtual nodes hashed from its address, and a
// partition maps to the first live worker at or after its own hash.
// Consistent hashing keeps the partition→worker assignment stable when
// a worker dies (only its partitions move), and assignment never
// affects result bits — computePartition is pure, so WHO computes a
// partition is invisible in WHAT it computes.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	worker int
}

const ringVirtual = 64

// hashString is FNV-1a with a murmur-style avalanche finalizer. Raw
// FNV has no final mixing step, so short keys sharing a prefix
// ("part/0", "part/1", ...) land in one narrow band of the ring and
// starve most workers; the finalizer spreads them uniformly.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func newRing(addrs []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(addrs)*ringVirtual)}
	for wi, addr := range addrs {
		for v := 0; v < ringVirtual; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hashString(fmt.Sprintf("%s#%d", addr, v)),
				worker: wi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].worker < r.points[j].worker
	})
	return r
}

// candidates returns every distinct worker in ring order starting at
// key's successor — the primary first, then the fallback sequence a
// retry walks.
func (r *ring) candidates(key string) []int {
	if len(r.points) == 0 {
		return nil
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[int]bool)
	var out []int
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.worker] {
			seen[p.worker] = true
			out = append(out, p.worker)
		}
	}
	return out
}

// Cluster is a coordinator's view of a set of worker processes.
type Cluster struct {
	addrs []string
	ring  *ring

	mu      sync.Mutex
	clients []*rpc.Client
	dead    []bool
}

// Dial connects to every worker address. It fails only if NO worker
// is reachable; partially-reachable clusters start degraded and the
// dispatch path routes around the dead members.
func Dial(addrs []string) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, ErrNoWorkers
	}
	c := &Cluster{
		addrs:   addrs,
		ring:    newRing(addrs),
		clients: make([]*rpc.Client, len(addrs)),
		dead:    make([]bool, len(addrs)),
	}
	live := 0
	for i, addr := range addrs {
		cl, err := rpc.Dial("tcp", addr)
		if err != nil {
			c.dead[i] = true
			continue
		}
		c.clients[i] = cl
		live++
	}
	if live == 0 {
		return nil, fmt.Errorf("%w: none of %v reachable", ErrNoWorkers, addrs)
	}
	return c, nil
}

// Close shuts every live connection.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cl := range c.clients {
		if cl != nil && !c.dead[i] {
			cl.Close()
		}
	}
}

// LiveWorkers returns the indices of workers not marked dead.
func (c *Cluster) LiveWorkers() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i := range c.addrs {
		if !c.dead[i] && c.clients[i] != nil {
			out = append(out, i)
		}
	}
	return out
}

// call invokes method on worker wi. A transport-level failure (broken
// connection, dead process) marks the worker dead so no future
// partition routes to it; an application-level error (rpc.ServerError)
// leaves it alive — the worker answered, it just refused the job.
func (c *Cluster) call(wi int, method string, args, reply any) error {
	c.mu.Lock()
	cl, dead := c.clients[wi], c.dead[wi]
	c.mu.Unlock()
	if dead || cl == nil {
		return fmt.Errorf("distributed: worker %d (%s) is marked dead", wi, c.addrs[wi])
	}
	err := cl.Call(method, args, reply)
	if err == nil {
		return nil
	}
	if _, isApp := err.(rpc.ServerError); !isApp {
		c.mu.Lock()
		c.dead[wi] = true
		c.mu.Unlock()
	}
	return fmt.Errorf("distributed: worker %d (%s): %w", wi, c.addrs[wi], err)
}

// DistributedSpMM computes C = A x B across the cluster's worker
// processes, bit-identical to the in-process PartitionedSpMM: the
// same partitioned pipeline (runPartitioned), with each partition's
// pure diagonal-block computation run remotely, one dispatch in
// flight per partition. Workers receive the graph as a checksummed
// sogre-shard/v1 encoding; every partial result is checksummed at the
// worker and re-verified here before it may touch C. Each dispatch
// runs under fc's guard (sites "partition" and "partition/xfer"):
// dead workers, stragglers, and corrupted transfers are routed around
// via the consistent-hash fallback sequence; if every attempt fails,
// the partition is computed locally — recovery in every case leaves
// no trace in the result bits, because the partition function is pure
// (check.FaultEquivalence standard). Coordinator counters (dist/*,
// resil/*) go to fc.Inj's registry.
func (c *Cluster) DistributedSpMM(g *graph.Graph, b *dense.Matrix, maxN int, p pattern.VNM, opt core.Options, fc FaultConfig) (*dense.Matrix, error) {
	reg := fc.Inj.Obs()
	enc, err := shard.EncodeGraph(g)
	if err != nil {
		return nil, err
	}
	load := &LoadArgs{
		GraphShard: enc,
		GraphSum:   shard.ChecksumBytes(enc),
		BRows:      b.Rows,
		BCols:      b.Cols,
		BData:      b.Data,
		BSum:       resil.Checksum(b.Data),
	}
	var wg sync.WaitGroup
	for _, wi := range c.LiveWorkers() {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var reply LoadReply
			if err := c.call(wi, "Worker.Load", load, &reply); err != nil {
				reg.Volatile("dist/load_failed").Inc()
				return
			}
			if reply.GraphSum != load.GraphSum || reply.BSum != load.BSum || reply.N != g.N() {
				c.mu.Lock()
				c.dead[wi] = true
				c.mu.Unlock()
				reg.Volatile("dist/load_failed").Inc()
			}
		}(wi)
	}
	wg.Wait()

	return runPartitioned(g, b, maxN, p, func(n int, fn func(int)) error {
		return sched.New(n).Run(n, fn)
	}, func(pi int, part []int) ([]int, []float32, error) {
		return c.computeRemote(pi, part, g, b, p, opt, fc, load.GraphSum, load.BSum)
	})
}

// computeRemote dispatches one partition under fc's guard:
// consistent-hash candidate order, bounded retries that walk the
// fallback sequence, speculative backup dispatch for stragglers,
// receiver-side checksum and row-coverage verification, and local
// recomputation as the last resort. It returns the partition's global
// rows and their values.
func (c *Cluster) computeRemote(pi int, part []int, g *graph.Graph, b *dense.Matrix,
	p pattern.VNM, opt core.Options, fc FaultConfig, graphSum, bSum uint64) ([]int, []float32, error) {

	reg := fc.Inj.Obs()
	args := &ComputeArgs{
		Part: part,
		V:    p.V, N: p.N, M: p.M,
		Opt: WireOptions{
			MaxIter:       opt.MaxIter,
			Stage1MaxIter: opt.Stage1MaxIter,
			Stage2MaxIter: opt.Stage2MaxIter,
			Workers:       opt.Workers,
		},
		GraphSum: graphSum,
		BSum:     bSum,
	}

	cands := c.ring.candidates(fmt.Sprintf("part/%d", pi))
	// next hands out candidate indices across primary, retry, and
	// speculative-backup dispatches alike, so a backup never lands on
	// the worker the primary is stuck on.
	var next int64
	v, err := fc.guard("partition", func() (any, []float32, uint64, error) {
		k := int(atomic.AddInt64(&next, 1)) - 1
		live := c.LiveWorkers()
		// Walk the ring order, skipping dead workers; wrap by k so
		// successive dispatches land on successive live candidates.
		isLive := make(map[int]bool, len(live))
		for _, l := range live {
			isLive[l] = true
		}
		var order []int
		for _, cand := range cands {
			if isLive[cand] {
				order = append(order, cand)
			}
		}
		if len(order) == 0 {
			return nil, nil, 0, ErrNoWorkers
		}
		wi := order[k%len(order)]
		reg.Volatile("dist/jobs").Inc()
		var reply ComputeReply
		if err := c.call(wi, "Worker.Compute", args, &reply); err != nil {
			return nil, nil, 0, err
		}
		if err := verifyRowCoverage(part, &reply, b.Cols); err != nil {
			return nil, nil, 0, err
		}
		return &reply, reply.Data, reply.Checksum, nil
	})
	if err == nil {
		reply := v.(*ComputeReply)
		return reply.Rows, reply.Data, nil
	}

	// Last resort: every worker is gone (or every attempt failed
	// verification). The pure local pipeline produces the exact bits a
	// healthy worker would have — recovery leaves no trace.
	reg.Volatile("dist/local_fallback").Inc()
	out, lerr := computePartition(g, b, part, p, opt)
	if lerr != nil {
		return nil, nil, fmt.Errorf("distributed: partition %d failed remotely (%v) and locally: %w", pi, err, lerr)
	}
	return out.rows, out.localC.Data, nil
}

// verifyRowCoverage checks a reply names exactly the partition's
// vertex set (in any order) with a consistently-shaped payload — a
// malformed or misrouted reply must not scatter into C.
func verifyRowCoverage(part []int, reply *ComputeReply, wantCols int) error {
	if reply.Cols != wantCols {
		return fmt.Errorf("distributed: reply has %d cols, want %d", reply.Cols, wantCols)
	}
	if len(reply.Rows) != len(part) || len(reply.Data) != len(part)*wantCols {
		return fmt.Errorf("distributed: reply shape %dx%d values=%d, want %d rows",
			len(reply.Rows), reply.Cols, len(reply.Data), len(part))
	}
	want := make(map[int]bool, len(part))
	for _, v := range part {
		want[v] = true
	}
	for _, r := range reply.Rows {
		if !want[r] {
			return fmt.Errorf("distributed: reply row %d outside its partition", r)
		}
		delete(want, r)
	}
	if len(want) != 0 {
		return fmt.Errorf("distributed: reply missing %d partition rows", len(want))
	}
	return nil
}
