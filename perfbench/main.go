// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload, generated from a seed, for a fixed time, checks
// every result against core.Naive, and prints one JSON line of metrics
// as its last line of output:
//
//	perfbench --workload tpch-fig12 --seed 1 --seconds 20 --trace 0
//
// The benchmark drives the program only through its public calls
// (core.NewDB, query.Parse, Planner.Plan, Planner.ExecuteContext,
// server.Service.Handler) and the counters those calls return. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes, reports per-layer metrics from
// the traced ones and writes their spans as Chrome trace-event JSON to
// .bench_build/trace-<workload>-<seed>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// A run builds its workload at least minSetups times and until the
// builds have taken setupBudget, at most maxSetups times. setup_s is
// the interquartile mean of the builds: one slow build does not move
// it, and it does not jump between the two speeds the same 3 ms build
// shows on a shared host (2.5 and 3.9 ms, even pinned to one CPU),
// which a median does when about half the builds ran at each.
const (
	minSetups   = 5
	maxSetups   = 500
	setupBudget = 2 * time.Second
)

// instance is one built workload, ready to be measured.
type instance interface {
	// oracle computes the core.Naive references the timed results are
	// checked against, before the timed phase.
	oracle() error
	// measure runs the timed phase for d and returns its report.
	measure(ctx context.Context, d time.Duration, traced bool, tr *tracer) (*report, error)
	close()
}

// workload is one named workload. Every workload is one closed-loop
// client: a second client on a 2-CPU host measured the scheduler.
type workload struct {
	name  string
	build func(seed int64) (instance, error)
}

var benchWorkloads = []workload{
	{name: "mobile-fig9", build: buildMobile},
	{name: "tpch-fig12", build: buildTPCH},
	{name: "string-band-spill", build: buildStringBand},
	{name: "thetad-serve", build: buildServe},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one timed phase measured.
type report struct {
	attempted, failed int
	endToEnd          map[string]metric
	perLayer          map[string]metric
	notes             []string // sample counts and shares, printed before the result
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	var w *workload
	var names []string
	for i := range benchWorkloads {
		names = append(names, benchWorkloads[i].name)
		if benchWorkloads[i].name == name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}

	var setups []float64
	var inst instance
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = w.build(seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer inst.close()
	refStart := time.Now()
	if err := inst.oracle(); err != nil {
		return fmt.Errorf("core.Naive reference: %w", err)
	}
	fmt.Printf("references before the timed phase: %.2f s\n", time.Since(refStart).Seconds())

	// Start the timed phase from a collected heap and a fresh RSS
	// high-water mark, so neither the set-up nor the oracle shows in it.
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	var tr *tracer
	if trace == 1 {
		tr = newTracer()
	}
	rep, err := inst.measure(context.Background(), time.Duration(seconds)*time.Second, trace == 1, tr)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s: seed %d, 1 closed-loop client, %d operations attempted, %d failed\n",
		name, seed, rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Println(n)
	}

	metrics := rep.perLayer
	if trace == 0 {
		metrics = rep.endToEnd
		metrics["setup_s"] = metric{interquartileMean(setups), "s"}
		fmt.Printf("setup_s: interquartile mean of %d set-ups; quartiles %.4g %.4g %.4g s\n",
			len(setups), quantile(setups, 0.25), median(setups), quantile(setups, 0.75))
	} else {
		traceOut := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := writeTrace(tr, traceOut); err != nil {
			return err
		}
		fmt.Println("trace written to", traceOut)
	}
	out, err := json.Marshal(result{
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func writeTrace(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// layerShares turns the traced self times into per-layer shares (%) of
// the traced operations' total time, as per-layer metrics, and notes
// them largest first.
func layerShares(tr *tracer, layers []string, rep *report) {
	self := tr.selfTimes()
	var total time.Duration
	for _, l := range layers {
		total += self[l]
	}
	type share struct {
		layer string
		pct   float64
	}
	var shares []share
	for _, l := range layers {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(self[l]) / float64(total)
		}
		rep.perLayer[l+"_share"] = metric{pct, "%"}
		shares = append(shares, share{l, pct})
	}
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].pct > shares[j].pct })
	var b strings.Builder
	b.WriteString("layer self-time shares:")
	for _, s := range shares {
		fmt.Fprintf(&b, " %s %.1f%%", s.layer, s.pct)
	}
	rep.notes = append(rep.notes, b.String())
}
