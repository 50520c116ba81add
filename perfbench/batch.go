package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mr"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workloads"
)

// The engine configuration of the paper's Fig. 9/12 comparison rows:
// kP 96 processing units, 256 tuples per map task, 1<<14 Hilbert cells.
const (
	batchKP       = 96
	batchMaxCells = 1 << 14
)

// stringBandSpec is the string-band-spill query: an equality on the
// interned station name plus an order on begin time.
const stringBandSpec = "FROM calls t1, calls t2 WHERE t1.bs = t2.bs AND t1.bt < t2.bt"

// spillBudget bounds both the map-side pair buffer and the block
// store's page cache of string-band-spill, so every pair is spilled and
// the spilled runs do not fit in the cache.
const spillBudget = 1 << 20

// tpchSets is how many databases tpch-fig12 generates from one seed.
// One database's modeled makespan moves by up to a quarter from seed to
// seed (Q21's intermediate sizes), so passes cycle through several and
// an untraced run lasts until it has run each of them.
const tpchSets = 6

// batchQuery is one query of a batch workload's fixed sequence.
type batchQuery struct {
	q    *query.Query // built query, or nil when spec is parsed per run
	spec string
	db   *core.DB
	// The core.Naive reference: the content hash of its result, its
	// column names, and the hash of its columns in canonical order,
	// which any column order of a correct result reproduces.
	wantRaw, wantCanon uint64
	wantCols           string
}

// batch is a workload one closed-loop client runs as a fixed query
// sequence, a pass, over and over; the passes cycle through sets.
type batch struct {
	cfg     mr.Config
	sets    [][]batchQuery
	store   *dfs.BlockStore // spill target; nil keeps the shuffle in memory
	analyze time.Duration   // database build time, generation included for mobile and TPC-H
}

func batchConfig() mr.Config {
	cfg := mr.DefaultConfig()
	cfg.TuplesPerMapTask = 256
	if cfg.MapSlots > batchKP {
		cfg.MapSlots = batchKP
	}
	cfg.ReduceSlots = batchKP
	return cfg
}

// subSeed derives one generator seed per query from the run's seed.
func subSeed(seed int64, part int) int64 { return seed*1_000_003 + int64(part) }

// buildMobile is Fig. 9's mobile Q1–Q4 at the 20 GB sizes.
func buildMobile(seed int64) (instance, error) {
	b := &batch{cfg: batchConfig(), sets: make([][]batchQuery, 1)}
	for qn := 1; qn <= 4; qn++ {
		q, err := workloads.MobileQuery(qn)
		if err != nil {
			return nil, err
		}
		mcfg := workloads.DefaultMobileConfig()
		mcfg.Tuples = workloads.MobileTuplesFor(qn, 20)
		mcfg.NominalGB = 20
		mcfg.Seed = subSeed(seed, qn)
		start := time.Now()
		db, err := workloads.MobileDB(mcfg, 300)
		if err != nil {
			return nil, err
		}
		b.analyze += time.Since(start)
		b.sets[0] = append(b.sets[0], batchQuery{q: q, db: db})
	}
	return b, nil
}

// buildTPCH is Fig. 12's TPC-H Q7/Q17/Q18/Q21 at the 200 GB sizes, on
// tpchSets databases.
func buildTPCH(seed int64) (instance, error) {
	b := &batch{cfg: batchConfig(), sets: make([][]batchQuery, tpchSets)}
	for set := range b.sets {
		for _, qn := range []int{7, 17, 18, 21} {
			q, err := workloads.TPCHQuery(qn)
			if err != nil {
				return nil, err
			}
			tcfg := workloads.DefaultTPCHConfig()
			tcfg.Scale = workloads.TPCHRowsFor(qn, 200)
			tcfg.NominalGB = 200
			tcfg.Seed = subSeed(seed, 100*set+qn)
			start := time.Now()
			db, err := workloads.TPCHDB(tcfg, 300)
			if err != nil {
				return nil, err
			}
			b.analyze += time.Since(start)
			b.sets[set] = append(b.sets[set], batchQuery{q: q, db: db})
		}
	}
	return b, nil
}

// buildStringBand is one spilled self-join over 4000 call records with
// 2000 stations, so the station name column is interned.
func buildStringBand(seed int64) (instance, error) {
	mcfg := workloads.DefaultMobileConfig()
	mcfg.Tuples = 4000
	mcfg.Stations = 2000
	mcfg.Seed = subSeed(seed, 1)
	table := workloads.MobileTable(mcfg)
	start := time.Now()
	db, err := core.NewDB(300, mcfg.Seed, table)
	if err != nil {
		return nil, err
	}
	b := &batch{cfg: batchConfig(), analyze: time.Since(start)}
	if b.store, err = dfs.NewBlockStore("", spillBudget); err != nil {
		return nil, err
	}
	b.cfg.SpillBudgetBytes = spillBudget
	b.cfg.Spill = b.store
	b.sets = [][]batchQuery{{{spec: stringBandSpec, db: db}}}
	return b, nil
}

func (b *batch) close() {
	if b.store != nil {
		b.store.Close()
	}
}

// resolve returns the query and the database view it runs against.
func (bq *batchQuery) resolve() (*query.Query, *core.DB, error) {
	if bq.spec == "" {
		return bq.q, bq.db, nil
	}
	q, aliases, err := query.Parse("band", bq.spec)
	if err != nil {
		return nil, nil, err
	}
	view, err := bq.db.View(aliases)
	return q, view, err
}

func canonicalHash(r *relation.Relation) uint64 {
	return relation.ContentHash(core.CanonicalizeResult(r))
}

func columnNames(r *relation.Relation) string {
	names := make([]string, r.Schema.Len())
	for i := range names {
		names[i] = r.Schema.Column(i).Name
	}
	return strings.Join(names, ",")
}

// matches reports whether r holds the Naive result. A result in Naive's
// column order is hashed as it is, which saves the canonical copy of a
// large output.
func (bq *batchQuery) matches(r *relation.Relation) bool {
	if columnNames(r) == bq.wantCols {
		return relation.ContentHash(r) == bq.wantRaw
	}
	return canonicalHash(r) == bq.wantCanon
}

// oracle computes every query's core.Naive reference, the queries in
// parallel.
func (b *batch) oracle() error {
	var queries []*batchQuery
	for _, set := range b.sets {
		for i := range set {
			queries = append(queries, &set[i])
		}
	}
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, bq := range queries {
		wg.Add(1)
		go func(bq *batchQuery, i int) {
			defer wg.Done()
			q, db, err := bq.resolve()
			if err != nil {
				errs[i] = err
				return
			}
			ref, err := core.Naive(q, db)
			if err != nil {
				errs[i] = err
				return
			}
			bq.wantRaw, bq.wantCanon, bq.wantCols = relation.ContentHash(ref), canonicalHash(ref), columnNames(ref)
		}(bq, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batchPass is what one pass measured. The end-to-end fields are
// filled on every pass, the per-layer ones on traced passes.
type batchPass struct {
	wall, cpu time.Duration // Σ over the pass's queries of parse+plan+execute
	alloc     uint64
	peakRSS   float64 // VmHWM over the pass, MB
	makespan  float64
	traced    bool
	set       int // index into batch.sets

	plan, exec, merge, mapW, reduceW, assemble time.Duration
	planAlloc, execAlloc                       uint64
	candidates, maxConc, replanned, mergeSteps int
	combos, rows, shuffle, spill, peakLive     int64
	spillRuns, tasks, attempts                 int
	balanceMax                                 float64
	cacheHits, cacheMisses                     int64
}

func (b *batch) measure(ctx context.Context, d time.Duration, traced bool, tr *tracer) (*report, error) {
	rep := &report{}
	op := 0
	runPass := func(p *batchPass) {
		set := b.sets[p.set]
		var hits0, misses0 int64
		if b.store != nil {
			hits0, misses0, _ = b.store.CacheStats()
		}
		for qi := range set {
			op++
			rep.attempted++
			if err := b.runQuery(ctx, &set[qi], p, tr, op); err != nil {
				rep.failed++
				fmt.Println("failed:", err)
			}
		}
		if p.traced && b.store != nil {
			hits, misses, _ := b.store.CacheStats()
			p.cacheHits, p.cacheMisses = hits-hits0, misses-misses0
		}
	}
	// An unmeasured warm-up pass lets the heap and the spill files' page
	// cache fill: the first pass after the forced GC ran up to half again
	// as long as the next ones. Its results are checked like the rest.
	runPass(&batchPass{})

	var passes []batchPass
	start := time.Now()
	for i := 0; ; i++ {
		if time.Since(start) >= d && ((traced && i >= 2) || (!traced && i >= len(b.sets))) {
			break
		}
		// A traced run measures each set twice in a row, untraced then
		// traced, so the tracing overhead compares equal work.
		setIdx := i % len(b.sets)
		if traced {
			setIdx = i / 2 % len(b.sets)
		}
		p := batchPass{traced: traced && i%2 == 1, set: setIdx}
		resetPeakRSS()
		runPass(&p)
		p.peakRSS = peakRSSMB()
		passes = append(passes, p)
	}
	b.fill(rep, passes, tr)
	return rep, nil
}

// runQuery plans and executes one query, adds its cost to the pass and
// checks its result. On a traced pass it records spans and attributes
// allocations to planning and execution.
func (b *batch) runQuery(ctx context.Context, bq *batchQuery, p *batchPass, tr *tracer, op int) error {
	if !p.traced {
		tr = nil
	}
	// Each query starts from a collected heap, so the garbage one query
	// leaves is not collected on the next one's time.
	runtime.GC()
	alloc0, cpu0 := totalAlloc(), cpuTime()
	t0 := time.Now()
	q, db, err := bq.resolve()
	if err != nil {
		return err
	}
	pl := core.NewPlanner(b.cfg, batchKP)
	pl.Opts.MaxCells = batchMaxCells
	var a1, a2 uint64
	if tr != nil {
		a1 = totalAlloc()
	}
	t1 := time.Now()
	plan, err := pl.Plan(q, db)
	if err != nil {
		return fmt.Errorf("plan %s: %w", q.Name, err)
	}
	t2 := time.Now()
	if tr != nil {
		a2 = totalAlloc()
	}
	res, err := pl.ExecuteContext(ctx, plan, db)
	if err != nil {
		return fmt.Errorf("execute %s: %w", q.Name, err)
	}
	t3 := time.Now()
	if tr != nil {
		p.planAlloc += a2 - a1
		p.execAlloc += totalAlloc() - a2
	}
	p.cpu += cpuTime() - cpu0
	p.alloc += totalAlloc() - alloc0
	p.wall += t3.Sub(t0)
	p.makespan += res.Makespan
	if tr != nil {
		traceQuery(tr, op, plan, res, t0, t1, t2, t3)
		p.add(plan, res, t1, t2, t3)
	}
	if !bq.matches(res.Output) {
		return fmt.Errorf("%s: result differs from core.Naive", q.Name)
	}
	return nil
}

// traceQuery records one query's spans. The engine reports each job's
// measured map, reduce and assembly time but not when the job started,
// so the phases are laid out back to back in plan order from the start
// of execution, clipped before the merge tree that ends it.
func traceQuery(tr *tracer, op int, plan *core.Plan, res *core.ExecResult, t0, t1, t2, t3 time.Time) {
	root := tr.add("query", op, 0, t0, t3)
	tr.add("query.parse", op, root, t0, t1)
	tr.add("core.plan", op, root, t1, t2)
	exec := tr.add("core.exec", op, root, t2, t3)
	mergeStart := t3.Add(-res.MergeWall)
	if res.MergeWall > 0 {
		tr.add("core.merge", op, exec, mergeStart, t3)
	}
	at := t2
	for _, pj := range plan.Jobs {
		w := res.JobMetrics[pj.Name].Wall
		for _, ph := range [...]struct {
			name string
			d    time.Duration
		}{{"mr.map", w.Map}, {"mr.reduce", w.Reduce}, {"mr.assemble", w.Assemble}} {
			end := at.Add(ph.d)
			if end.After(mergeStart) {
				end = mergeStart
			}
			if at.Before(end) {
				tr.add(ph.name, op, exec, at, end)
				at = end
			}
		}
	}
}

// add adds one query's per-layer counters to the pass.
func (p *batchPass) add(plan *core.Plan, res *core.ExecResult, t1, t2, t3 time.Time) {
	p.plan += t2.Sub(t1)
	p.exec += t3.Sub(t2)
	p.merge += res.MergeWall
	p.mergeSteps += res.MergeCount
	p.candidates += plan.CandidateEdges + plan.PrunedCandidates
	p.maxConc = max(p.maxConc, res.MaxConcurrentJobs)
	p.replanned += len(res.Replanned)
	p.rows += int64(res.Output.Cardinality())
	p.shuffle += res.ShuffleBytes
	p.spill += res.SpillBytes
	p.spillRuns += res.SpillRuns
	p.peakLive = max(p.peakLive, res.PeakLiveBytes)
	for _, m := range res.JobMetrics {
		p.mapW += m.Wall.Map
		p.reduceW += m.Wall.Reduce
		p.assemble += m.Wall.Assemble
		p.combos += m.CombinationsChecked
		p.tasks += m.MapTasks + m.ReduceTasks
		p.attempts += m.MapAttempts + m.ReduceAttempts
		p.balanceMax = max(p.balanceMax, m.BalanceRatio)
	}
}

// batchLayers are the layers whose self times a batch workload's trace
// splits a query into.
var batchLayers = []string{"query.parse", "core.plan", "core.exec", "core.merge", "mr.map", "mr.reduce", "mr.assemble"}

func (b *batch) fill(rep *report, passes []batchPass, tr *tracer) {
	var untraced, traced []batchPass
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	med := func(ps []batchPass, f func(batchPass) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	wallS := med(untraced, func(p batchPass) float64 { return p.wall.Seconds() })
	rep.endToEnd = map[string]metric{
		"wall_s":             {wallS, "s"},
		"cpu_s":              {med(untraced, func(p batchPass) float64 { return p.cpu.Seconds() }), "s"},
		"alloc_mb":           {med(untraced, func(p batchPass) float64 { return float64(p.alloc) / 1e6 }), "MB"},
		"peak_rss_mb":        {med(untraced, func(p batchPass) float64 { return p.peakRSS }), "MB"},
		"modeled_makespan_s": {meanPerSet(untraced), "s"},
		"latency_p50_ms":     {1000 * wallS, "ms"},
		"throughput_qps":     {float64(len(b.sets[0])) / wallS, "1/s"},
	}
	rep.notes = append(rep.notes, fmt.Sprintf("passes: %d untraced, %d traced, %d queries each over %d database sets; wall_s, cpu_s, alloc_mb, peak_rss_mb and latency_p50_ms are medians over the %d untraced passes, modeled_makespan_s the mean over the sets",
		len(untraced), len(traced), len(b.sets[0]), len(b.sets), len(untraced)))
	walls := make([]string, len(untraced))
	for i, p := range untraced {
		walls[i] = fmt.Sprintf("%.3f", p.wall.Seconds())
	}
	rep.notes = append(rep.notes, "untraced pass walls (s): "+strings.Join(walls, " "))
	if tr == nil {
		return
	}
	rep.perLayer = zeroLayers()
	set := func(name string, f func(batchPass) float64) {
		rep.perLayer[name] = metric{med(traced, f), layerUnits[name]}
	}
	rep.perLayer["core.analyze_s"] = metric{b.analyze.Seconds(), "s"}
	set("core.plan_s", func(p batchPass) float64 { return p.plan.Seconds() })
	set("core.exec_s", func(p batchPass) float64 { return p.exec.Seconds() })
	set("core.merge_s", func(p batchPass) float64 { return p.merge.Seconds() })
	set("mr.map_s", func(p batchPass) float64 { return p.mapW.Seconds() })
	set("mr.reduce_s", func(p batchPass) float64 { return p.reduceW.Seconds() })
	set("mr.assemble_s", func(p batchPass) float64 { return p.assemble.Seconds() })
	set("core.plan_alloc_mb", func(p batchPass) float64 { return float64(p.planAlloc) / 1e6 })
	set("core.exec_alloc_mb", func(p batchPass) float64 { return float64(p.execAlloc) / 1e6 })
	set("core.plan_candidates", func(p batchPass) float64 { return float64(p.candidates) })
	set("core.max_concurrent_jobs", func(p batchPass) float64 { return float64(p.maxConc) })
	set("core.replanned_jobs", func(p batchPass) float64 { return float64(p.replanned) })
	set("core.merge_steps", func(p batchPass) float64 { return float64(p.mergeSteps) })
	set("mr.combinations_checked", func(p batchPass) float64 { return float64(p.combos) })
	set("mr.probe_yield", func(p batchPass) float64 { return ratio(float64(p.rows), float64(p.combos)) })
	set("mr.shuffle_gb", func(p batchPass) float64 { return float64(p.shuffle) / 1e9 })
	set("mr.balance_ratio_max", func(p batchPass) float64 { return p.balanceMax })
	set("mr.attempt_yield", func(p batchPass) float64 { return ratio(float64(p.tasks), float64(p.attempts)) })
	set("mr.spill_mb", func(p batchPass) float64 { return float64(p.spill) / 1e6 })
	set("mr.spill_runs", func(p batchPass) float64 { return float64(p.spillRuns) })
	set("mr.peak_live_mb", func(p batchPass) float64 { return float64(p.peakLive) / 1e6 })
	set("dfs.cache_hit_ratio", func(p batchPass) float64 {
		return ratio(float64(p.cacheHits), float64(p.cacheHits+p.cacheMisses))
	})
	rep.perLayer["obs.trace_overhead_ratio"] = metric{
		med(traced, func(p batchPass) float64 { return p.wall.Seconds() }) / wallS, "ratio"}
	layerShares(tr, batchLayers, rep)
}

// meanPerSet averages the modeled makespan of a pass over the database
// sets the passes ran. It is deterministic per set, so each counts once.
func meanPerSet(passes []batchPass) float64 {
	var bySet []float64
	for _, p := range passes {
		for len(bySet) <= p.set {
			bySet = append(bySet, -1)
		}
		bySet[p.set] = p.makespan
	}
	sum, n := 0.0, 0
	for _, m := range bySet {
		if m >= 0 {
			sum += m
			n++
		}
	}
	return sum / float64(n)
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
