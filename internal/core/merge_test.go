package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
)

// refMerge is the eager reference pair-merge: a nested loop over both
// outputs' tuples, matching on every shared relation's rid value, with
// the columns, dictionaries and volume multiplier MergeOutputs promises.
func refMerge(name string, l, r *relation.Relation) (*relation.Relation, error) {
	lRels, rRels := operandOf(l).rels, operandOf(r).rels
	var shared []string
	for rel := range lRels {
		if rRels[rel] {
			shared = append(shared, rel)
		}
	}
	slices.Sort(shared)
	var lKey, rKey, rKeep []int
	isShared := map[string]bool{}
	for _, rel := range shared {
		isShared[rel] = true
		lKey = append(lKey, l.Schema.MustLookup(rel+"."+RowIDColumn))
		rKey = append(rKey, r.Schema.MustLookup(rel+"."+RowIDColumn))
	}
	cols := l.Schema.Columns()
	dicts := make([]*relation.Dict, 0, len(cols))
	for i := range cols {
		dicts = append(dicts, l.DictOf(i))
	}
	for i := 0; i < r.Schema.Len(); i++ {
		c := r.Schema.Column(i)
		if isShared[c.Name[:strings.IndexByte(c.Name, '.')]] {
			continue
		}
		rKeep = append(rKeep, i)
		cols = append(cols, c)
		dicts = append(dicts, r.DictOf(i))
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	out := relation.New(name, schema)
	out.VolumeMultiplier = l.VolumeMultiplier
	if r.VolumeMultiplier > out.VolumeMultiplier {
		out.VolumeMultiplier = r.VolumeMultiplier
	}
	for _, d := range dicts {
		if d != nil {
			out.Dicts = dicts
		}
	}
	for _, lt := range l.Tuples {
	next:
		for _, rt := range r.Tuples {
			for k := range lKey {
				if !relation.Equal(lt[lKey[k]], rt[rKey[k]]) {
					continue next
				}
			}
			row := append(relation.Tuple(nil), lt...)
			for _, c := range rKeep {
				row = append(row, rt[c])
			}
			out.Tuples = append(out.Tuples, row)
		}
	}
	return out, nil
}

// refMergeAll walks pickMergePair's tree over eagerly merged
// relations, re-deriving each intermediate's relation set from its
// columns.
func refMergeAll(name string, outputs []*relation.Relation) (*relation.Relation, []MergeStep, []MergeFanout, error) {
	work := append([]*relation.Relation(nil), outputs...)
	ops := make([]mergeOperand, len(work))
	for i, r := range work {
		ops[i] = operandOf(r)
	}
	var steps []MergeStep
	var fanout []MergeFanout
	for len(work) > 1 {
		bi, bj, ok := pickMergePair(ops)
		if !ok {
			return nil, nil, nil, fmt.Errorf("stalled")
		}
		stepName := name
		if len(work) > 2 {
			stepName = fmt.Sprintf("%s~m%d", name, len(steps))
		}
		steps = append(steps, MergeStep{LeftBytes: ops[bi].bytes, RightBytes: ops[bj].bytes})
		merged, err := refMerge(stepName, work[bi], work[bj])
		if err != nil {
			return nil, nil, nil, err
		}
		fanout = append(fanout, MergeFanout{stepName, len(work[bi].Tuples), len(work[bj].Tuples), len(merged.Tuples)})
		mergedOp := operandOf(merged)
		mergedOp.bytes = ops[bi].bytes + ops[bj].bytes
		work = append(work[:bj], work[bj+1:]...)
		work = append(work[:bi], work[bi+1:]...)
		work = append(work, merged)
		ops = append(ops[:bj], ops[bj+1:]...)
		ops = append(ops[:bi], ops[bi+1:]...)
		ops = append(ops, mergedOp)
	}
	return work[0], steps, fanout, nil
}

// mergeFixture generates job outputs over the base relations named by
// sets, as a planned job would emit them: per relation, its rid and a
// payload column derived from the rid (a dictionary-coded string for
// relations with a dictionary). Rids come from [base, base+domain), so
// a small domain makes duplicate-heavy, fanning-out matches.
type mergeFixture struct {
	rng   *rand.Rand
	dicts map[string]*relation.Dict
}

func (f *mergeFixture) output(name string, rels []string, n, base, domain int, vm float64) *relation.Relation {
	var cols []relation.Column
	var dicts []*relation.Dict
	for _, rel := range rels {
		kind := relation.KindInt
		if f.dicts[rel] != nil {
			kind = relation.KindString
		}
		cols = append(cols, relation.Column{Name: rel + "." + RowIDColumn, Kind: relation.KindInt},
			relation.Column{Name: rel + ".v", Kind: kind})
		dicts = append(dicts, nil, f.dicts[rel])
	}
	out := relation.New(name, relation.MustSchema(cols...))
	out.VolumeMultiplier = vm
	out.Dicts = dicts
	for i := 0; i < n; i++ {
		var t relation.Tuple
		for _, rel := range rels {
			rid := int64(base + f.rng.Intn(domain))
			v := relation.Int(rid*7 + int64(len(rel)))
			if d := f.dicts[rel]; d != nil {
				code := rid % int64(d.Len())
				v = relation.InternedStr(d.At(code), code)
			}
			t = append(t, relation.Int(rid), v)
		}
		out.MustAppend(t)
	}
	return out
}

// randomMergeInputs draws 2–4 outputs in which each later output shares
// one or two relations with the earlier ones (so the merge never
// stalls), with an empty output and an output that matches nothing
// mixed in on some seeds.
func randomMergeInputs(rng *rand.Rand) []*relation.Relation {
	f := &mergeFixture{rng: rng, dicts: map[string]*relation.Dict{
		"B": relation.NewDict([]string{"b0", "b1", "b2"}),
		"E": relation.NewDict([]string{"e0", "e1"}),
	}}
	universe := []string{"A", "B", "C", "D", "E", "F"}
	rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	nOps := 2 + rng.Intn(3)
	empty, disjoint := rng.Intn(2*nOps), rng.Intn(2*nOps)
	var seen []string
	var outs []*relation.Relation
	for o := 0; o < nOps; o++ {
		var rels []string
		if o == 0 {
			rels = append(rels, universe[:1+rng.Intn(2)]...)
		} else {
			perm := rng.Perm(len(seen))
			for _, p := range perm[:1+rng.Intn(min(2, len(seen)))] {
				rels = append(rels, seen[p])
			}
		}
		for _, rel := range universe {
			if len(rels) < 3 && !slices.Contains(seen, rel) && !slices.Contains(rels, rel) && rng.Intn(2) == 0 {
				rels = append(rels, rel)
			}
		}
		for _, rel := range rels {
			if !slices.Contains(seen, rel) {
				seen = append(seen, rel)
			}
		}
		rng.Shuffle(len(rels), func(i, j int) { rels[i], rels[j] = rels[j], rels[i] })
		n, base := 1+rng.Intn(25), 0
		if o == empty {
			n = 0
		}
		if o == disjoint && o > 0 {
			base = 1000
		}
		vm := []float64{1, 2.5, 40}[rng.Intn(3)]
		outs = append(outs, f.output(fmt.Sprintf("j%d", o), rels, n, base, 1+rng.Intn(4), vm))
	}
	return outs
}

// TestMergeAllMatchesReference differentially checks the row-ID merge
// tree against the eager nested-loop reference on seeded random job
// outputs: identical tuples in order, schema, dictionaries, volume
// multiplier, merge steps and per-step row counts.
func TestMergeAllMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		inputs := randomMergeInputs(rand.New(rand.NewSource(seed)))
		want, wantSteps, wantFan, err := refMergeAll("q", inputs)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, steps, fan, err := mergeAll("q", inputs, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Name != want.Name || !got.Schema.Equal(want.Schema) || got.VolumeMultiplier != want.VolumeMultiplier {
			t.Fatalf("seed %d: header %s %v %v, want %s %v %v", seed,
				got.Name, got.Schema, got.VolumeMultiplier, want.Name, want.Schema, want.VolumeMultiplier)
		}
		if !slices.Equal(got.Dicts, want.Dicts) {
			t.Fatalf("seed %d: dictionaries differ", seed)
		}
		if !reflect.DeepEqual(got.Tuples, want.Tuples) {
			t.Fatalf("seed %d: %d tuples differ from the reference's %d", seed, len(got.Tuples), len(want.Tuples))
		}
		for i, tu := range got.Tuples {
			if cap(tu) != len(tu) {
				t.Fatalf("seed %d: tuple %d has spare capacity %d", seed, i, cap(tu)-len(tu))
			}
		}
		if !reflect.DeepEqual(steps, wantSteps) || !reflect.DeepEqual(fan, wantFan) {
			t.Fatalf("seed %d: steps %v %v, want %v %v", seed, steps, fan, wantSteps, wantFan)
		}
	}
}

// TestMergeHashCollision: composite rid keys that hash alike but
// differ must not match.
func TestMergeHashCollision(t *testing.T) {
	x := int64(hashKey([]int64{1, 0}))
	if hashKey([]int64{1, x}) != hashKey([]int64{0, 0}) {
		t.Fatal("fixture keys no longer collide; pick a new pair")
	}
	ids := func(name string, rows ...[]int64) *relation.Relation {
		var cols []relation.Column
		for _, rel := range []string{"A", "B", "C"}[:len(rows[0])] {
			cols = append(cols, relation.Column{Name: rel + "." + RowIDColumn, Kind: relation.KindInt})
		}
		r := relation.New(name, relation.MustSchema(cols...))
		for _, row := range rows {
			var tu relation.Tuple
			for _, v := range row {
				tu = append(tu, relation.Int(v))
			}
			r.MustAppend(tu)
		}
		return r
	}
	got, err := MergeOutputs("x", ids("l", []int64{0, 0}), ids("r", []int64{1, x, 5}, []int64{0, 0, 6}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != 1 || got.Tuples[0][2].Int64() != 6 {
		t.Errorf("merged %v, want the one (0, 0, 6) row", got.Tuples)
	}
}

// TestMergeRejectsNonIntRid: the merge keys on int64 rids and refuses
// to guess at any other kind.
func TestMergeRejectsNonIntRid(t *testing.T) {
	f := &mergeFixture{rng: rand.New(rand.NewSource(1))}
	a := f.output("a", []string{"A", "B"}, 3, 0, 2, 1)
	b := f.output("b", []string{"B", "C"}, 3, 0, 2, 1)
	b.Tuples[1][0] = relation.Str("1")
	if _, err := MergeOutputs("x", a, b); err == nil || !strings.Contains(err.Error(), "string") {
		t.Errorf("string rid merged: %v", err)
	}
}

// TestEnsureRowIDsRejectsNonIntRids: an existing rid column must hold
// unique non-NULL ints, and the error names the offending kind.
func TestEnsureRowIDsRejectsNonIntRids(t *testing.T) {
	rel := func(kind relation.Kind, ids ...relation.Value) *relation.Relation {
		r := relation.New("R", relation.MustSchema(relation.Column{Name: RowIDColumn, Kind: kind}))
		for _, id := range ids {
			r.MustAppend(relation.Tuple{id})
		}
		return r
	}
	for _, tc := range []struct {
		name string
		r    *relation.Relation
		want string // "" for accepted
	}{
		{"ints", rel(relation.KindInt, relation.Int(3), relation.Int(1)), ""},
		{"duplicate int", rel(relation.KindInt, relation.Int(3), relation.Int(3)), "duplicate"},
		{"strings", rel(relation.KindString, relation.Str("a"), relation.Str("b")), "string"},
		{"floats", rel(relation.KindFloat, relation.Float(1.25), relation.Float(1.75)), "float"},
		{"null", rel(relation.KindInt, relation.Null()), "null"},
	} {
		_, err := EnsureRowIDs(tc.r)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// BenchmarkMergeAll merges a Q3-shaped tree: two pair-merges that fan
// out about 30× ({A,B}⋈{B,C} on B, {A,D}⋈{D,C} on D), then a root on
// the composite (A, C) rid key that shrinks the two ~100k-row
// intermediates to a few thousand rows.
func BenchmarkMergeAll(b *testing.B) {
	f := &mergeFixture{rng: rand.New(rand.NewSource(7)), dicts: map[string]*relation.Dict{
		"B": relation.NewDict([]string{"b0", "b1", "b2", "b3"}),
	}}
	gen := func(name string, rels []string, n int, domains ...int) *relation.Relation {
		out := f.output(name, rels, n, 0, 1, 1)
		for _, t := range out.Tuples {
			for k, d := range domains {
				t[2*k] = relation.Int(int64(f.rng.Intn(d)))
			}
		}
		return out
	}
	inputs := []*relation.Relation{
		gen("p", []string{"A", "B"}, 1000, 1000, 100),
		gen("q", []string{"B", "C"}, 3000, 100, 1000),
		gen("r", []string{"A", "D"}, 3100, 1000, 100),
		gen("s", []string{"D", "C"}, 3100, 100, 1000),
	}
	_, _, fan, err := mergeAll("q3", inputs, nil)
	if err != nil {
		b.Fatal(err)
	}
	if len(fan) != 3 || fan[0].OutRows < 20*fan[0].LeftRows || fan[2].OutRows >= fan[2].LeftRows {
		b.Fatalf("tree is not Q3-shaped: %+v", fan)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := MergeAll("q3", inputs); err != nil {
			b.Fatal(err)
		}
	}
}
