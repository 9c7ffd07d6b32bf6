package main

// serve-mutate: durable online mutation beside reads. A mutable
// engine with a group-commit WAL (snapshot at epoch 0) takes valid
// 4-op batches from dyn.GenerateStream through Server.SubmitMutate
// while one reader queries, both in open loops at fixed rates; then
// the engine is recovered from the snapshot plus WAL replay.
//
// Both loops are open so that every run does the same work: with a
// closed-loop reader the reads per mutation, and with them the share
// of reads that find the caches invalidated, follow the machine's
// speed, which doubled the read latency between runs on a loaded host.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/serve"
	"repro/internal/venom"
	"repro/internal/wal"
)

type mutateSizes struct {
	serveSizes
	rate        float64 // mutation batches per second
	readRate    float64 // reader queries per second
	opsPerBatch int
	probeEvery  int // probe after every k-th ack
	probes      int // distinct probe requests
}

func serveMutateSizes(tiny bool) mutateSizes {
	if tiny {
		return mutateSizes{
			serveSizes: serveSizes{n: 256, communities: 8, degree: 8, homophily: 0.8, featureDim: 16,
				cacheRows: 32, reqNodes: 8, scriptLen: 200, warmup: 5},
			rate: 100, readRate: 200, opsPerBatch: 4, probeEvery: 3, probes: 4,
		}
	}
	return mutateSizes{
		serveSizes: serveSizes{n: 2048, communities: 16, degree: 15, homophily: 0.8, featureDim: 64,
			cacheRows: 256, reqNodes: 16, scriptLen: 8192, warmup: 50},
		rate: 8, readRate: 25, opsPerBatch: 4, probeEvery: 10, probes: 8,
	}
}

// ack is one acknowledged mutation batch and its probe, if any.
type ack struct {
	out   serve.MutateOutcome
	probe *served
}

func runServeMutate(cfg runConfig) (*result, error) {
	sz := serveMutateSizes(cfg.tiny)
	g := sz.sbm(cfg.seed)
	nBatches := max(int(sz.rate*cfg.seconds), 1)
	nReads := max(int(sz.readRate*cfg.seconds), 1)
	stream := dyn.GenerateStream(g, nBatches*sz.opsPerBatch, cfg.seed)
	batches := make([][]dyn.Mutation, nBatches)
	for i := range batches {
		batches[i] = stream.Ops[i*sz.opsPerBatch : (i+1)*sz.opsPerBatch]
	}
	script, err := serve.GenerateScript(serve.ScriptConfig{
		Seed: cfg.seed, Clients: 1, Requests: sz.scriptLen, N: sz.n,
		MinNodes: sz.reqNodes, MaxNodes: sz.reqNodes, ClassifyEvery: 4,
	})
	if err != nil {
		return nil, err
	}
	probeScript, err := serve.GenerateScript(serve.ScriptConfig{
		Seed: cfg.seed + 1, Clients: 1, Requests: sz.probes, N: sz.n, MinNodes: sz.reqNodes, MaxNodes: sz.reqNodes,
	})
	if err != nil {
		return nil, err
	}
	probes := probeScript[0]
	reader := script[0]
	dir, err := os.MkdirTemp("", "e2ebench-mutate-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snapPath, walPath := filepath.Join(dir, "engine.snap"), filepath.Join(dir, "mutations.wal")

	res := newResult()
	tr := newTracer(cfg.trace)
	p := pattern.New(4, 2, 8)
	ecfg := serve.EngineConfig{Pattern: p, FeatureDim: sz.featureDim, CacheRows: sz.cacheRows, Seed: cfg.seed, Mutable: true, Workers: 1}
	var reg *obs.Registry
	if cfg.trace {
		reg = obs.NewRegistry()
	}

	// Set-up: graph in -> durable server up -> first query answered.
	t0 := time.Now()
	var ro *core.Result
	tr.time("core.reorder", func() { ro, err = core.Reorder(g.ToBitMatrix(), p, core.Options{}) })
	if err != nil {
		return nil, err
	}
	withPerm := ecfg
	withPerm.Perm = ro.Perm
	var eng *serve.Engine
	tr.time("serve.engine_build", func() {
		c := withPerm
		c.Obs = reg
		eng, err = serve.NewEngine(g, c)
	})
	if err != nil {
		return nil, err
	}
	if err := eng.Snapshot(snapPath); err != nil {
		return nil, err
	}
	log, _, err := serve.OpenWAL(eng, walPath)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(eng, serve.ServerConfig{WAL: log})
	if err != nil {
		log.Close()
		return nil, err
	}
	closeServer := func() {
		if srv != nil {
			srv.Close()
			// Every acknowledged batch was fsynced before its ack; the
			// WAL check below reads what the log holds.
			log.Close()
			srv = nil
		}
	}
	defer closeServer()
	firstResp, err := srv.Submit(reader[0])
	if err != nil {
		return nil, fmt.Errorf("first query: %w", err)
	}
	setup := time.Since(t0)
	reads := []served{{req: reader[0], idx: 0, resp: firstResp}}
	for i := 1; i <= sz.warmup; i++ {
		resp, err := srv.Submit(reader[i])
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		reads = append(reads, served{req: reader[i], idx: i, resp: resp})
	}
	heap := liveHeapMB()

	// Measured phase: each loop sends its i-th operation when it is due
	// (start + i/rate) and times it from then.
	var snap0 *obs.Snapshot
	if reg != nil {
		snap0 = reg.Snapshot()
	}
	var readLats, mutLats []float64
	acks := make([]ack, 0, nBatches)
	mutFailed, readFailed := 0, 0
	var wg sync.WaitGroup
	mem0 := readMem()
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		period := time.Duration(float64(time.Second) / sz.readRate)
		for i := 0; i < nReads; i++ {
			due := start.Add(time.Duration(i) * period)
			time.Sleep(time.Until(due))
			k := (sz.warmup + 1 + i) % sz.scriptLen
			resp, err := srv.Submit(reader[k])
			lat := time.Since(due)
			if err != nil {
				readFailed++
				continue
			}
			readLats = append(readLats, ms(lat))
			reads = append(reads, served{req: reader[k], idx: k, resp: resp})
		}
	}()
	go func() {
		defer wg.Done()
		period := time.Duration(float64(time.Second) / sz.rate)
		for i, b := range batches {
			due := start.Add(time.Duration(i) * period)
			time.Sleep(time.Until(due))
			out, err := srv.SubmitMutate(b)
			lat := time.Since(due)
			if err != nil {
				mutFailed++
				continue
			}
			mutLats = append(mutLats, ms(lat))
			a := ack{out: out}
			if (i+1)%sz.probeEvery == 0 {
				req := probes[(i/sz.probeEvery)%len(probes)]
				if resp, err := srv.Submit(req); err != nil {
					mutFailed++
				} else {
					a.probe = &served{req: req, idx: i, resp: resp}
				}
			}
			acks = append(acks, a)
		}
	}()
	wg.Wait()
	mem1 := readMem()
	var snap1 *obs.Snapshot
	if reg != nil {
		snap1 = reg.Snapshot()
	}
	closeServer()
	res.attempted = nBatches + nReads + nBatches/sz.probeEvery
	res.failed = mutFailed + readFailed

	// Recovery: snapshot restore + WAL replay + first query answered.
	r0 := time.Now()
	var rec *serve.Engine
	tr.time("serve.restore", func() { rec, err = serve.RestoreEngine(snapPath, ecfg) })
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	var rlog *wal.Log
	replayed := 0
	tr.time("serve.replay", func() { rlog, replayed, err = serve.OpenWAL(rec, walPath) })
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	rsrv, err := serve.NewServer(rec, serve.ServerConfig{WAL: rlog})
	if err != nil {
		rlog.Close()
		return nil, err
	}
	_, qerr := rsrv.Submit(probes[0])
	recovery := time.Since(r0)
	rsrv.Close()
	rlog.Close()
	if qerr != nil {
		return nil, fmt.Errorf("first query after recovery: %w", qerr)
	}

	ar := csr.SymNormalized(mustPermute(g, ro.Perm))
	speedup, err := cycleModelSpeedup(ar, p, sz.featureDim)
	if err != nil {
		return nil, err
	}

	// The unit operation is one mutation batch, due time to fsynced ack.
	add := func(name, unit string, v float64) { res.e2e(cfg.trace, name, unit, v) }
	add("setup_s", "s", setup.Seconds())
	opLatencyMetrics(add, mutLats)
	add("model_speedup", "x", speedup)
	add("live_heap_mb", "MB", heap)

	// Output checks.
	checkMutations(res, g, batches, acks)
	checkMutateReads(res, g, batches, acks, reads, sz, cfg.seed)
	var lastEpoch uint64
	if len(acks) > 0 {
		lastEpoch = acks[len(acks)-1].out.Epoch
	}
	if got := rec.Epoch(); got != lastEpoch {
		res.fail("recovered engine at epoch %d, last ack was epoch %d (replayed %d)", got, lastEpoch, replayed)
	}
	eng.WaitWarm()
	rec.WaitWarm()
	for _, q := range probes {
		var live *serve.Response
		tr.time("serve.batch", func() { live = eng.ServeBatch([]*serve.Request{q}, false)[0] })
		got := rec.ServeBatch([]*serve.Request{q}, false)[0]
		if !sameResponse(live, got) {
			res.fail("recovered engine answers probe %v with other bits than the live engine", q.Nodes)
		}
	}
	if err := checkWALRecords(walPath, eng.Fingerprint(), len(acks)); err != nil {
		res.fail("%v", err)
	}

	if cfg.trace {
		if err := traceMutate(res, tr, g, ro, withPerm, batches, acks, dir, eng.Fingerprint(), walPath); err != nil {
			return nil, err
		}
		var comp *venom.Matrix
		var resid *csr.Matrix
		tr.time("venom.split", func() { comp, resid, err = venom.SplitToConform(ar, p) })
		if err != nil {
			return nil, err
		}
		timeKernels(res, tr, comp, resid, ar, sz.featureDim, cfg.seed)
		serveCounters(res, snap0, snap1, float64(len(readLats)+len(acks)/sz.probeEvery))
		m := res.metrics
		m.add("core.reorder_s", "s", tr.medianMs("core.reorder")/1e3)
		m.add("core.final_pscore", "count", float64(ro.FinalPScore))
		m.add("core.final_mbscore", "count", float64(ro.FinalMBScore))
		m.add("venom.split_ms", "ms", tr.medianMs("venom.split"))
		m.add("venom.residual_nnz", "count", float64(resid.NNZ()))
		m.add("serve.engine_build_s", "s", tr.medianMs("serve.engine_build")/1e3)
		m.add("serve.batch_ms", "ms", tr.medianMs("serve.batch"))
		m.add("serve.read_p50_ms", "ms", median(readLats))
		m.add("serve.restore_s", "s", tr.medianMs("serve.restore")/1e3)
		m.add("serve.replay_s", "s", tr.medianMs("serve.replay")/1e3)
		m.add("serve.recovery_s", "s", recovery.Seconds())
		m.add("runtime.gc_pause_ms", "ms", float64(mem1.pauseNs-mem0.pauseNs)/1e6)
	}
	return res, nil
}

// checkMutations checks every ack against the benchmark's own edge set:
// each batch is valid against the graph so far, so it must be applied
// in full, and acks carry consecutive epochs.
func checkMutations(res *result, g *graph.Graph, batches [][]dyn.Mutation, acks []ack) {
	es := edgeSetOf(g)
	if len(acks) != len(batches) {
		res.fail("%d of %d mutation batches acknowledged", len(acks), len(batches))
	}
	for i, a := range acks {
		if a.out.Epoch != uint64(i+1) {
			res.fail("ack %d carries epoch %d, want %d", i, a.out.Epoch, i+1)
			return
		}
		for _, m := range batches[i] {
			present := es.has(m.U, m.V)
			if (m.Op == dyn.OpInsert) == present {
				res.fail("batch %d: %v is not valid against the graph so far", i, m)
				return
			}
			es.apply(m)
		}
		if a.out.Batch.Applied != len(batches[i]) || len(a.out.Batch.Rejected) != 0 {
			res.fail("batch %d: %d of %d valid mutations applied (%d rejected)", i, a.out.Batch.Applied, len(batches[i]), len(a.out.Batch.Rejected))
		}
	}
}

// checkMutateReads checks that the reader's epochs never decrease, that
// every probe carries the epoch of the ack it followed, and that every
// read and probe matches the reference on the graph at its epoch.
func checkMutateReads(res *result, g *graph.Graph, batches [][]dyn.Mutation, acks []ack, reads []served, sz mutateSizes, seed int64) {
	byEpoch := map[uint64][]served{}
	var prev uint64
	for i, r := range reads {
		if r.resp.Epoch < prev {
			res.fail("reader response %d at epoch %d after epoch %d", i, r.resp.Epoch, prev)
		}
		prev = r.resp.Epoch
		byEpoch[r.resp.Epoch] = append(byEpoch[r.resp.Epoch], r)
	}
	for _, a := range acks {
		if a.probe == nil {
			continue
		}
		if a.probe.resp.Epoch != a.out.Epoch {
			res.fail("probe after ack of epoch %d answered at epoch %d", a.out.Epoch, a.probe.resp.Epoch)
		}
		byEpoch[a.probe.resp.Epoch] = append(byEpoch[a.probe.resp.Epoch], *a.probe)
	}
	epochs := make([]uint64, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	x := seededFeatures(sz.n, sz.featureDim, seed).Data
	head := seededFeatures(sz.featureDim, 8, seed+1)
	es := edgeSetOf(g)
	applied := uint64(0)
	for _, e := range epochs {
		if e > uint64(len(batches)) {
			res.fail("response at epoch %d, beyond the %d batches sent", e, len(batches))
			return
		}
		for ; applied < e; applied++ {
			for _, m := range batches[applied] {
				es.apply(m)
			}
		}
		var rows []int
		for _, s := range byEpoch[e] {
			rows = append(rows, s.req.Nodes...)
		}
		ref := es.ref().propagate(x, sz.featureDim, 2, rows)
		for _, s := range byEpoch[e] {
			if err := checkResponse(s, ref, head); err != nil {
				res.fail("epoch %d: %v", e, err)
				break
			}
		}
	}
}

// checkWALRecords checks that the log at path holds exactly acks records.
func checkWALRecords(path string, fingerprint uint64, acks int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	recs, err := wal.Replay(data, fingerprint)
	if err != nil {
		return fmt.Errorf("WAL: %w", err)
	}
	if len(recs) != acks {
		return fmt.Errorf("WAL holds %d records, %d batches were acknowledged", len(recs), acks)
	}
	return nil
}

// traceMutate times the mutation path's layers apart: Engine.Mutate on
// a twin with no WAL and no reader, dyn.ApplyBatch on a twin Mutable
// built from the same reorder result, and WAL Append+Commit of the
// same payloads on a side log.
func traceMutate(res *result, tr *tracer, g *graph.Graph, ro *core.Result, ecfg serve.EngineConfig,
	batches [][]dyn.Mutation, acks []ack, dir string, fp uint64, walPath string) error {
	m := res.metrics
	twin, err := serve.NewEngine(g, ecfg)
	if err != nil {
		return err
	}
	mem0 := readMem()
	for _, b := range batches {
		tr.time("serve.mutate", func() { _, err = twin.Mutate(b) })
		if err != nil {
			return err
		}
	}
	mem1 := readMem()
	twin.WaitWarm()

	d, err := dyn.New(&core.Result{Pattern: ro.Pattern, Perm: ro.Perm, Matrix: mustPermute(g, ro.Perm).ToBitMatrix()},
		dyn.Options{StalenessBudget: dyn.DefaultStalenessBudget, H: ecfg.FeatureDim})
	if err != nil {
		return err
	}
	for _, b := range batches {
		tr.time("dyn.apply_batch", func() { _, err = d.ApplyBatch(b) })
		if err != nil {
			return err
		}
	}

	side, _, err := wal.Open(filepath.Join(dir, "side.wal"), fp)
	if err != nil {
		return err
	}
	for _, b := range batches {
		payload := wal.EncodeBatch(b)
		tr.time("wal.commit", func() {
			if _, err = side.Append(payload); err == nil {
				err = side.Commit()
			}
		})
		if err != nil {
			side.Close()
			return err
		}
	}
	if err := side.Close(); err != nil {
		return err
	}
	var log *wal.Log
	var recs []wal.Record
	tr.time("wal.open", func() { log, recs, err = wal.Open(walPath, fp) })
	if err != nil {
		return err
	}
	log.Close()
	fi, err := os.Stat(walPath)
	if err != nil {
		return err
	}

	swaps, rebuilds := 0, 0
	for _, a := range acks {
		swaps += a.out.Batch.RepairSwaps
		if a.out.Batch.Rebuilt {
			rebuilds++
		}
	}
	m.add("serve.mutate_ms", "ms", tr.medianMs("serve.mutate"))
	m.add("serve.repair_swaps", "count", float64(swaps))
	m.add("serve.rebuilds", "count", float64(rebuilds))
	m.add("dyn.apply_batch_us", "us", tr.medianMs("dyn.apply_batch")*1e3)
	m.add("wal.commit_ms", "ms", tr.medianMs("wal.commit"))
	m.add("wal.open_ms", "ms", tr.medianMs("wal.open"))
	m.add("wal.bytes_per_batch", "bytes", float64(fi.Size())/float64(max(len(recs), 1)))
	m.add("runtime.alloc_kb_per_op", "KB", float64(mem1.totalAlloc-mem0.totalAlloc)/1024/float64(len(batches)))
	return nil
}
