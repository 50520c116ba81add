package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/workloads"
)

// thetad-serve: one closed-loop client sends a fixed request mix to one
// service in-process through its HTTP handler. With two clients on two
// CPUs a 2 ms request usually overlapped a 60 ms 3-way join and shared
// the CPUs with its map and reduce tasks, so p50 measured the scheduler:
// it spread 16 to 32 % between runs of the same code.
const (
	serveMaxConcurrent = 2
	serveRows          = 200
	serveKP            = 16
	// serveBlock is the request count of one pass: wall_s, cpu_s,
	// alloc_mb and modeled_makespan_s are per block of this many
	// completed requests.
	serveBlock = 100
	// serveMinRequests extends a short phase until p99 has ten samples
	// beyond it.
	serveMinRequests = 100 * minBeyond
)

// Request classes. Their shares (mixCounts) put p50 well inside the
// 2-way class and p99 well inside the 3-way tail, away from the
// boundaries where a small change in the mix would move a percentile
// from one class's latencies to another's.
const (
	classHot2 = iota
	classHot3
	classFresh
	numClasses
)

var classNames = [numClasses]string{"hot-2way", "hot-3way", "fresh-2way"}

// hot2 are 2-way joins with a range condition on the interned station
// name and an equality on the day; they execute in about a millisecond.
// hot3 are 3-way joins on caller id, station code and a two-hour band
// on begin time, whose band partitioning costs about 40 ms whatever the
// seed. Both stay in the plan cache after warm-up, so the classes keep
// their latency order: 2-way hits, then fresh 2-way misses (planning
// included), then 3-way hits.
var (
	hot2 = [...]string{
		"FROM calls a, calls b WHERE a.bs < b.bs AND a.d = b.d",
		"FROM calls a, calls b WHERE a.bs > b.bs AND a.d = b.d AND a.l < b.l",
		"FROM calls a, calls b WHERE a.bs <= b.bs AND a.d = b.d AND a.bt < b.bt",
		"FROM calls a, calls b WHERE a.bs >= b.bs AND a.d = b.d AND a.id < b.id",
	}
	hot3 = [...]string{
		"FROM calls a, calls b, calls c WHERE a.id = b.id AND b.bt <= c.bt AND c.bt < b.bt + 7200",
		"FROM calls a, calls b, calls c WHERE a.id = b.id AND a.bt <= c.bt AND c.bt < a.bt + 7200",
		"FROM calls a, calls b, calls c WHERE a.id = b.id AND b.bsc < c.bsc AND b.bt <= c.bt AND c.bt < b.bt + 7200",
		"FROM calls a, calls b, calls c WHERE a.id = b.id AND b.bt <= c.bt AND c.bt < b.bt + 7200 AND a.bsc <> c.bsc",
	}
)

// mixBlock is the request count over which the mix is exact: every
// run of mixBlock consecutive requests holds 35 hot 2-way (70 %), 12
// hot 3-way (24 %) and 3 fresh 2-way (6 %) requests, the hot ones
// spread evenly over their specs, in an order shuffled by the seed. A
// mix drawn request by request would move the 3-way share, and with it
// throughput, by a point or more from seed to seed.
const mixBlock = 50

var mixCounts = [numClasses]int{classHot2: 35, classHot3: 12, classFresh: 3}

// requestFor returns request i's class and spec. A fresh request joins
// under aliases no other request uses, so it misses the plan cache.
func requestFor(seed int64, i int) (int, string) {
	block, pos := i/mixBlock, i%mixBlock
	type slot struct{ class, spec int }
	slots := make([]slot, 0, mixBlock)
	for class, n := range mixCounts {
		for j := 0; j < n; j++ {
			slots = append(slots, slot{class, j + block})
		}
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(block)))
	rng.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
	sl := slots[pos]
	switch sl.class {
	case classHot2:
		return classHot2, hot2[sl.spec%len(hot2)]
	case classHot3:
		return classHot3, hot3[sl.spec%len(hot3)]
	default:
		a, b := fmt.Sprintf("f%da", i), fmt.Sprintf("f%db", i)
		return classFresh, fmt.Sprintf("FROM calls %s, calls %s WHERE %s.bs < %s.bs AND %s.d = %s.d", a, b, a, b, a, b)
	}
}

type serve struct {
	seed    int64
	db      *core.DB
	mrCfg   mr.Config
	svc     *server.Service
	handler http.Handler
	analyze time.Duration
}

func serveConfig() mr.Config {
	cfg := mr.DefaultConfig()
	if cfg.MapSlots > serveKP {
		cfg.MapSlots = serveKP
	}
	cfg.ReduceSlots = serveKP
	return cfg
}

// buildServe generates the call table, builds the service and warms
// its plan cache with every hot spec.
func buildServe(seed int64) (instance, error) {
	mcfg := workloads.DefaultMobileConfig()
	mcfg.Tuples = serveRows
	mcfg.Seed = subSeed(seed, 1)
	table := workloads.MobileTable(mcfg)
	start := time.Now()
	db, err := core.NewDB(300, mcfg.Seed, table)
	if err != nil {
		return nil, err
	}
	s := &serve{seed: seed, db: db, mrCfg: serveConfig(), analyze: time.Since(start)}
	s.svc = server.New(db, server.Config{KP: serveKP, MaxConcurrent: serveMaxConcurrent, MR: &s.mrCfg})
	s.handler = s.svc.Handler()
	for _, spec := range append(hot2[:], hot3[:]...) {
		if status, _, err := s.post(spec); err != nil || status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("warm-up %q: status %d: %v", spec, status, err)
		}
	}
	return s, nil
}

func (s *serve) close() { s.svc.Close() }

// oracle has nothing to compute before the timed phase: the fresh
// specs are only known once they are sent, so check computes every
// reference after the phase.
func (s *serve) oracle() error { return nil }

// post sends one POST /query through the handler.
func (s *serve) post(spec string) (int, *server.Response, error) {
	body, err := json.Marshal(server.Request{Spec: spec})
	if err != nil {
		return 0, nil, err
	}
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec.Code, nil, fmt.Errorf("%s", bytes.TrimSpace(rec.Body.Bytes()))
	}
	var resp server.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return rec.Code, nil, fmt.Errorf("decode response: %w", err)
	}
	return rec.Code, &resp, nil
}

// served is one request as the client saw it.
type served struct {
	idx, class int
	spec       string
	sent, done time.Time
	status     int
	resp       *server.Response
	err        error
	traced     bool
}

func (r *served) latencyMs() float64 { return float64(r.done.Sub(r.sent)) / 1e6 }

func (s *serve) measure(ctx context.Context, d time.Duration, traced bool, tr *tracer) (*report, error) {
	var reqs []served
	// cpu_s and alloc_mb are medians over blocks, like wall_s, so a
	// burst of load from outside the benchmark moves one block's figure
	// instead of the whole phase's mean. Each block's counters are read
	// between requests, off any request's latency.
	var blockCPU, blockAlloc []float64
	cpuMark, allocMark := cpuTime(), totalAlloc()
	start := time.Now()
	for i := 0; ctx.Err() == nil && (time.Since(start) < d || i < serveMinRequests); i++ {
		class, spec := requestFor(s.seed, i)
		r := served{idx: i, class: class, spec: spec, traced: traced && (i/serveBlock)%2 == 1}
		r.sent = time.Now()
		r.status, r.resp, r.err = s.post(spec)
		r.done = time.Now()
		if r.traced && r.resp != nil {
			root := tr.add("server.request", i, 0, r.sent, r.done)
			tr.add("core.plan", i, root, r.sent, r.sent.Add(time.Duration(r.resp.PlanNs)))
			tr.add("core.exec", i, root, r.done.Add(-time.Duration(r.resp.ExecNs)), r.done)
		}
		reqs = append(reqs, r)
		if len(reqs)%serveBlock == 0 {
			cpu, alloc := cpuTime(), totalAlloc()
			blockCPU = append(blockCPU, (cpu - cpuMark).Seconds())
			blockAlloc = append(blockAlloc, float64(alloc-allocMark)/1e6)
			cpuMark, allocMark = cpu, alloc
		}
	}
	phase := reqs[len(reqs)-1].done.Sub(start)

	rep := &report{attempted: len(reqs)}
	if err := s.check(reqs, rep); err != nil {
		return nil, err
	}
	if len(reqs) < 2*serveBlock {
		return nil, fmt.Errorf("only %d requests completed, want >= %d", len(reqs), 2*serveBlock)
	}
	blocks := float64(len(reqs)) / serveBlock
	var walls, makespans []float64
	for k := 0; (k+1)*serveBlock <= len(reqs); k++ {
		walls = append(walls, reqs[(k+1)*serveBlock-1].done.Sub(reqs[k*serveBlock].sent).Seconds())
		ms := 0.0
		for _, r := range reqs[k*serveBlock : (k+1)*serveBlock] {
			if r.resp != nil {
				ms += r.resp.Makespan
			}
		}
		makespans = append(makespans, ms)
	}

	var lat, latTraced, latUntraced []float64
	var classLat [numClasses][]float64
	for i := range reqs {
		r := &reqs[i]
		if r.resp == nil {
			continue
		}
		l := r.latencyMs()
		lat = append(lat, l)
		classLat[r.class] = append(classLat[r.class], l)
		if r.traced {
			latTraced = append(latTraced, l)
		} else {
			latUntraced = append(latUntraced, l)
		}
	}
	var classes []classShare
	for c := 0; c < numClasses; c++ {
		cs := classShare{Name: classNames[c], Share: 100 * float64(len(classLat[c])) / float64(len(lat)), Median: median(classLat[c])}
		classes = append(classes, cs)
		rep.notes = append(rep.notes, fmt.Sprintf("class %s: %.1f%% of %d requests, median %.2f ms", cs.Name, cs.Share, len(lat), cs.Median))
	}
	bounds := classBoundaries(classes)
	rep.notes = append(rep.notes, fmt.Sprintf("class boundaries (cumulative %%): %v", bounds))
	reported := []float64{50}
	if traced {
		reported = append(reported, 99)
	}
	pcts := make(map[float64]percentile)
	for _, p := range reported {
		pc, err := guardedPercentile(lat, p)
		if err != nil {
			return nil, fmt.Errorf("latency: %w", err)
		}
		if err := checkBoundary(p, bounds); err != nil {
			return nil, fmt.Errorf("latency: %w", err)
		}
		pcts[p] = pc
		rep.notes = append(rep.notes, fmt.Sprintf("latency p%g = %.3f ms over %d samples, %d beyond", p, pc.Value, pc.N, pc.Beyond))
	}

	rep.endToEnd = map[string]metric{
		"wall_s":             {median(walls), "s"},
		"cpu_s":              {median(blockCPU), "s"},
		"alloc_mb":           {median(blockAlloc), "MB"},
		"modeled_makespan_s": {median(makespans), "s"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"latency_p50_ms":     {pcts[50].Value, "ms"},
		"throughput_qps":     {float64(len(lat)) / phase.Seconds(), "1/s"},
	}
	rep.notes = append(rep.notes, fmt.Sprintf("blocks of %d requests: %d; wall_s, cpu_s and alloc_mb are their medians", serveBlock, len(walls)))
	if traced {
		s.fill(rep, reqs, blocks, pcts[99], latTraced, latUntraced, tr)
	}
	return rep, nil
}

// check compares every served result with the one-shot result of its
// spec, whose content is checked against core.Naive. Both references
// are computed here, after the timed phase, because the fresh specs
// are only known once the requests are sent.
func (s *serve) check(reqs []served, rep *report) error {
	want := make(map[string]string)
	for i := range reqs {
		r := &reqs[i]
		if r.status != http.StatusOK {
			rep.failed++
			fmt.Printf("failed: request %d: status %d: %v\n", r.idx, r.status, r.err)
			continue
		}
		w, ok := want[r.spec]
		if !ok {
			var err error
			if w, err = s.reference(r.spec); err != nil {
				return fmt.Errorf("reference for %q: %w", r.spec, err)
			}
			want[r.spec] = w
		}
		if r.resp.ResultHash != w {
			rep.failed++
			fmt.Printf("failed: request %d %q: hash %s, reference %s\n", r.idx, r.spec, r.resp.ResultHash, w)
		}
	}
	return nil
}

// reference returns the hash the service should serve for spec: the
// one-shot result of the spec's canonical form (which the service
// compiles), after checking that its content equals core.Naive's. The
// one-shot hash keeps the service's column order; the Naive comparison
// is column-order independent.
func (s *serve) reference(spec string) (string, error) {
	q, aliases, err := query.Parse("ref", spec)
	if err != nil {
		return "", err
	}
	cq, caliases, err := query.Parse("ref", query.Canonical(q, aliases))
	if err != nil {
		return "", err
	}
	view, err := s.db.View(caliases)
	if err != nil {
		return "", err
	}
	pl := core.NewPlanner(s.mrCfg, serveKP)
	plan, err := pl.Plan(cq, view)
	if err != nil {
		return "", err
	}
	res, err := pl.Execute(plan, view)
	if err != nil {
		return "", err
	}
	naive, err := core.Naive(cq, view)
	if err != nil {
		return "", err
	}
	if got, ref := canonicalHash(res.Output), canonicalHash(naive); got != ref {
		return "", fmt.Errorf("one-shot result %016x differs from Naive %016x", got, ref)
	}
	return server.ResultHash(res), nil
}

// serveLayers are the layers a served request's trace splits into: the
// service's own time (admission, cache, warm revision, rendering) as
// the request span's self time, planning and execution.
var serveLayers = []string{"server.request", "core.plan", "core.exec"}

func (s *serve) fill(rep *report, reqs []served, blocks float64, p99 percentile, traced, untraced []float64, tr *tracer) {
	rep.perLayer = zeroLayers()
	set := func(name string, v float64) { rep.perLayer[name] = metric{v, layerUnits[name]} }
	var planNs, execNs, overhead []float64
	var planSum, execSum, shuffle int64
	var hits, budget, replanned, maxConc, failed int
	balance := 0.0
	for i := range reqs {
		r := &reqs[i]
		if r.resp == nil {
			failed++
			continue
		}
		planNs = append(planNs, float64(r.resp.PlanNs)/1e6)
		execNs = append(execNs, float64(r.resp.ExecNs)/1e6)
		overhead = append(overhead, r.latencyMs()-float64(r.resp.PlanNs+r.resp.ExecNs)/1e6)
		planSum += r.resp.PlanNs
		execSum += r.resp.ExecNs
		shuffle += r.resp.ShuffleBytes
		budget += r.resp.Budget
		replanned += len(r.resp.Replanned)
		maxConc = max(maxConc, r.resp.MaxConcurrentJobs)
		if r.resp.CacheHit {
			hits++
		}
		for _, b := range r.resp.JobBalance {
			balance = max(balance, b)
		}
	}
	n := float64(len(planNs))
	set("core.analyze_s", s.analyze.Seconds())
	set("core.plan_s", float64(planSum)/1e9/blocks)
	set("core.exec_s", float64(execSum)/1e9/blocks)
	set("core.max_concurrent_jobs", float64(maxConc))
	set("core.replanned_jobs", float64(replanned)/blocks)
	set("mr.shuffle_gb", float64(shuffle)/1e9/blocks)
	set("mr.balance_ratio_max", balance)
	set("server.overhead_ms_p50", median(overhead))
	if pc, err := guardedPercentile(planNs, 99); err == nil {
		set("server.plan_ms_p99", pc.Value)
	}
	set("server.exec_ms_p50", median(execNs))
	set("server.cache_hit_ratio", float64(hits)/n)
	set("schedule.budget_mean", float64(budget)/n)
	set("server.failed", float64(failed))
	set("latency_p99_ms", p99.Value)
	set("obs.trace_overhead_ratio", median(traced)/median(untraced))
	layerShares(tr, serveLayers, rep)
}
