package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
)

// TestReportModeledVsMeasured asserts that an executed plan carries
// both time axes — the modeled Makespan (simulated cluster seconds)
// and the measured Wall (real time on this machine), per job and in
// total — and that Report keeps them explicitly apart in its output.
func TestReportModeledVsMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randRelation("A", 60, 16, rng)
	b := randRelation("B", 50, 16, rng)
	db := newTestDB(t, a, b)
	q := query.MustNew("rep", []string{"A", "B"}, []predicate.Condition{
		predicate.C("A", "a", predicate.LT, "B", "a"),
	})
	pl := testPlanner(8)
	plan, err := pl.Plan(q, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}

	// Both axes populated, at every level.
	if res.Makespan <= 0 {
		t.Errorf("modeled Makespan not populated: %v", res.Makespan)
	}
	if res.Wall <= 0 {
		t.Errorf("measured Wall not populated: %v", res.Wall)
	}
	for name, m := range res.JobMetrics {
		if m.Sim.Total <= 0 {
			t.Errorf("job %s: modeled Sim.Total not populated: %v", name, m.Sim.Total)
		}
		if m.Wall.Total <= 0 {
			t.Errorf("job %s: measured Wall.Total not populated: %v", name, m.Wall.Total)
		}
		if m.Wall.Map <= 0 || m.Wall.Reduce <= 0 {
			t.Errorf("job %s: phase walls not populated: %+v", name, m.Wall)
		}
	}

	rep := res.Report()
	// The two time axes must be labelled apart, never as one number.
	if !strings.Contains(rep, "MODELED") {
		t.Errorf("report does not mark the modeled makespan:\n%s", rep)
	}
	if !strings.Contains(rep, "MEASURED") {
		t.Errorf("report does not mark the measured wall time:\n%s", rep)
	}
	for _, col := range []string{"plan kR", "ran kR", "model(s)", "wall", "shuffle", "balance"} {
		if !strings.Contains(rep, col) {
			t.Errorf("report lacks column %q:\n%s", col, rep)
		}
	}
	for _, pj := range plan.Jobs {
		if !strings.Contains(rep, pj.Name) {
			t.Errorf("report lacks job %s:\n%s", pj.Name, rep)
		}
	}
}

// TestReportWithoutPlan asserts the degraded path: a hand-assembled
// result (no retained plan) still renders, with measured columns only.
func TestReportWithoutPlan(t *testing.T) {
	res := &ExecResult{
		Makespan:     12.5,
		ShuffleBytes: 1 << 20,
		JobMetrics: map[string]mr.Metrics{
			"solo": {ReduceTasks: 4},
		},
	}
	rep := res.Report()
	if !strings.Contains(rep, "solo") || !strings.Contains(rep, "MODELED") {
		t.Errorf("degraded report malformed:\n%s", rep)
	}
}

// TestReportMergeFanout asserts that an executed multi-job plan records
// every pair-merge's row counts, chained through the tree to the final
// output, and that Report lists them.
func TestReportMergeFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	db := newTestDB(t, randRelation("A", 40, 6, rng), randRelation("B", 30, 6, rng),
		randRelation("C", 30, 6, rng), randRelation("D", 20, 6, rng))
	job := func(name, l, r string) PlannedJob {
		return PlannedJob{Name: name, Conds: predicate.Conjunction{predicate.C(l, "a", predicate.EQ, r, "a")},
			RelOrder: []string{l, r}, Kind: KindHashEqui, Reducers: 4, Units: 4}
	}
	plan := &Plan{Query: &query.Query{Name: "fan"}, Jobs: []PlannedJob{
		job("fan-j1", "A", "B"), job("fan-j2", "B", "C"), job("fan-j3", "C", "D"),
	}}
	res, err := testPlanner(12).Execute(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	fan := res.MergeFanout
	if len(fan) != res.MergeCount || len(fan) != 2 {
		t.Fatalf("fan-out has %d steps, MergeCount %d, want 2", len(fan), res.MergeCount)
	}
	if fan[0].Step != "fan~m0" || fan[1].Step != "fan" {
		t.Errorf("step names %q, %q; want fan~m0, fan", fan[0].Step, fan[1].Step)
	}
	// The first step's output is the root's right operand (merged
	// nodes re-enter at the end of the work list).
	if fan[1].RightRows != fan[0].OutRows || fan[1].OutRows != res.Output.Cardinality() {
		t.Errorf("fan-out %+v does not chain to the %d output rows", fan, res.Output.Cardinality())
	}
	rep := res.Report()
	for _, f := range fan {
		if want := fmt.Sprintf("%s: %d⋈%d→%d", f.Step, f.LeftRows, f.RightRows, f.OutRows); !strings.Contains(rep, want) {
			t.Errorf("report lacks %q:\n%s", want, rep)
		}
	}
}
