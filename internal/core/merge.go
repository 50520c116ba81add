package core

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/relation"
)

// Merging (§4.2, Fig. 4): when two jobs of T share input relations,
// their outputs combine on the shared relations' row IDs — "such a
// merge operation only has output keys or data IDs involved, therefore
// it can be done very efficiently". The full query result is obtained
// by merging every job output into one relation.
//
// So the merge tree copies no value below its root. A node is a row-ID
// view (mergeNode) over the job outputs it covers; a pair-merge hashes
// the shared relations' int64 rids and emits rows of indexes. Only the
// root is materialized, into one backing array of values.

// mergeNode is a row-ID view of a partial merge result: row i holds,
// for each ref in cols, src[ref.src].Tuples[rows[i*len(src)+ref.src]][ref.ord].
type mergeNode struct {
	name   string
	src    []*relation.Relation
	rows   []int32 // row-major, one index per source
	n      int     // row count
	cols   []colRef
	schema *relation.Schema
	dicts  []*relation.Dict // aligned with cols
	vm     float64          // the sources' largest VolumeMultiplier
}

// colRef locates a mergeNode column: ordinal ord of source src.
type colRef struct{ src, ord int }

// leafNode is the identity view of one job output.
func leafNode(r *relation.Relation) *mergeNode {
	nd := &mergeNode{name: r.Name, src: []*relation.Relation{r}, rows: make([]int32, len(r.Tuples)),
		n: len(r.Tuples), schema: r.Schema, vm: r.VolumeMultiplier}
	for i := range nd.rows {
		nd.rows[i] = int32(i)
	}
	for c := range r.Schema.Len() {
		nd.cols = append(nd.cols, colRef{0, c})
		nd.dicts = append(nd.dicts, r.DictOf(c))
	}
	return nd
}

// ridKeys reads the shared relations' rids, len(shared) per row. A
// rid that is not an int is an error (EnsureRowIDs rules them out).
func (nd *mergeNode) ridKeys(step string, shared []string) ([]int64, error) {
	k, w := len(shared), len(nd.src)
	keys := make([]int64, nd.n*k)
	for ki, rel := range shared {
		ci, ok := nd.schema.Lookup(rel + "." + RowIDColumn)
		if !ok {
			return nil, fmt.Errorf("core: merge %s: %s lacks %s.%s", step, nd.name, rel, RowIDColumn)
		}
		c := nd.cols[ci]
		for i := range nd.n {
			v := nd.src[c.src].Tuples[nd.rows[i*w+c.src]][c.ord]
			if v.Kind() != relation.KindInt {
				return nil, fmt.Errorf("core: merge %s: %s.%s of %s is %s, want int", step, rel, RowIDColumn, nd.name, v.Kind())
			}
			keys[i*k+ki] = v.Int64()
		}
	}
	return keys, nil
}

// hashKey hashes one composite rid key; a single rid is its own hash.
func hashKey(key []int64) uint64 {
	h := uint64(key[0])
	for _, v := range key[1:] {
		h = h*0x9e3779b97f4a7c15 ^ uint64(v)
	}
	return h
}

// mergeNodes joins two views on the rids of the relations both cover.
// Output columns are the left's, then the right's not of a shared
// relation (those duplicate the left's); rows come in left-row order,
// each left row's matches in right-row order.
func mergeNodes(step string, l, r *mergeNode, lRels, rRels map[string]bool) (*mergeNode, error) {
	shared := slices.DeleteFunc(slices.Sorted(maps.Keys(lRels)), func(rel string) bool { return !rRels[rel] })
	lk, err := l.ridKeys(step, shared)
	rk, rErr := r.ridKeys(step, shared)
	if err = cmp.Or(err, rErr); err != nil {
		return nil, err
	}
	lw, rw, k := len(l.src), len(r.src), len(shared)
	out := &mergeNode{name: step, src: append(l.src[:lw:lw], r.src...), vm: math.Max(l.vm, r.vm),
		cols: slices.Clone(l.cols), dicts: slices.Clone(l.dicts)}
	columns := l.schema.Columns()
	for ci, c := range r.cols {
		col := r.schema.Column(ci)
		if dot := strings.IndexByte(col.Name, '.'); dot > 0 && lRels[col.Name[:dot]] {
			continue
		}
		out.cols = append(out.cols, colRef{lw + c.src, c.ord})
		out.dicts = append(out.dicts, r.dicts[ci])
		columns = append(columns, col)
	}
	if out.schema, err = relation.NewSchema(columns...); err != nil {
		return nil, fmt.Errorf("core: merge %s: %w", step, err)
	}
	// Chain the right rows by key hash in a power-of-two bucket table
	// (Fibonacci-hashed, so sequential rids spread). head and next hold
	// row+1 (0 ends a chain) and are built backwards, so chains run in
	// row order.
	shift := 64 - bits.Len(uint(max(r.n-1, 1)))
	head, next := make([]int32, 1<<(64-shift)), make([]int32, r.n)
	bucket := func(key []int64) int { return int(hashKey(key) * 0x9e3779b97f4a7c15 >> shift) }
	for j := r.n - 1; j >= 0; j-- {
		b := bucket(rk[j*k : (j+1)*k])
		next[j], head[b] = head[b], int32(j+1)
	}
	// Two probes of the left rows: the first counts the matches, so the
	// second fills an index matrix allocated once at its final size.
	probe := func(emit func(i, j int)) {
		for i := range l.n {
			key := lk[i*k : (i+1)*k]
			for j := int(head[bucket(key)]) - 1; j >= 0; j = int(next[j]) - 1 {
				if slices.Equal(key, rk[j*k:(j+1)*k]) {
					emit(i, j)
				}
			}
		}
	}
	probe(func(int, int) { out.n++ })
	if out.n > math.MaxInt32 {
		return nil, fmt.Errorf("core: merge %s: more than %d rows, beyond int32 row IDs", step, math.MaxInt32)
	}
	out.rows = make([]int32, 0, out.n*(lw+rw))
	probe(func(i, j int) {
		out.rows = append(append(out.rows, l.rows[i*lw:(i+1)*lw]...), r.rows[j*rw:(j+1)*rw]...)
	})
	return out, nil
}

// materialize builds the view's relation. Every tuple is a full-cap
// slice of one backing array, so an append to one tuple cannot
// overwrite the next.
func (nd *mergeNode) materialize(name string) *relation.Relation {
	out := relation.New(name, nd.schema)
	out.VolumeMultiplier = nd.vm
	if slices.ContainsFunc(nd.dicts, func(d *relation.Dict) bool { return d != nil }) {
		out.Dicts = nd.dicts
	}
	if nd.n > 0 {
		out.Tuples = make([]relation.Tuple, nd.n)
	}
	wd, ws := len(nd.cols), len(nd.src)
	flat := make([]relation.Value, nd.n*wd)
	for i := range out.Tuples {
		t := flat[i*wd : (i+1)*wd : (i+1)*wd]
		for c, ref := range nd.cols {
			t[c] = nd.src[ref.src].Tuples[nd.rows[i*ws+ref.src]][ref.ord]
		}
		out.Tuples[i] = t
	}
	return out
}

// MergeOutputs joins two job outputs on the row IDs of their shared
// base relations: MergeAll of the pair. Returns an error when the
// outputs share no relation.
func MergeOutputs(name string, left, right *relation.Relation) (*relation.Relation, error) {
	out, _, err := MergeAll(name, []*relation.Relation{left, right})
	return out, err
}

// MergeStep records one pair-merge of the tree: the modeled byte
// sizes of its two operands, in selection order. The executor charges
// the measured merge makespan off these steps, and the planner's
// estimate (estimateMergeSteps) walks the same selection policy, so
// estimate and measurement price the same tree instead of the
// plan-order chain they historically disagreed on.
type MergeStep struct {
	LeftBytes, RightBytes int64
}

// mergeOperand is the pair-selection view of one partial result:
// which base relations its columns cover, its cardinality, and its
// modeled bytes. MergeAll builds operands from real relations; the
// planner's merge estimate builds them from candidate estimates, so
// both sides walk the same tree-selection policy (pickMergePair).
type mergeOperand struct {
	rels  map[string]bool
	card  int
	bytes int64
}

// operandOf is a job output's operand; its relations are the
// prefixes of its column names.
func operandOf(r *relation.Relation) mergeOperand {
	rels := make(map[string]bool)
	for i := range r.Schema.Len() {
		name := r.Schema.Column(i).Name
		if dot := strings.IndexByte(name, '.'); dot > 0 {
			rels[name[:dot]] = true
		}
	}
	return mergeOperand{rels: rels, card: r.Cardinality(), bytes: r.ModeledSize()}
}

// merged is the operand of a pair-merge's result: the union of the
// relation sets at the summed bytes, with the given cardinality.
func (a mergeOperand) merged(b mergeOperand, card int) mergeOperand {
	union := maps.Clone(a.rels)
	maps.Copy(union, b.rels)
	return mergeOperand{rels: union, card: card, bytes: a.bytes + b.bytes}
}

func sharedCount(a, b map[string]bool) int {
	n := 0
	for k := range a {
		if b[k] {
			n++
		}
	}
	return n
}

// pickMergePair returns the operand pair sharing the most relations
// (ties: smaller combined cardinality first, then first in index
// order), or ok=false when no pair shares a relation.
func pickMergePair(ops []mergeOperand) (bi, bj int, ok bool) {
	bi, bj = -1, -1
	bestShared, bestCard := 0, 0
	for i := 0; i < len(ops); i++ {
		for j := i + 1; j < len(ops); j++ {
			s := sharedCount(ops[i].rels, ops[j].rels)
			if s == 0 {
				continue
			}
			card := ops[i].card + ops[j].card
			if s > bestShared || (s == bestShared && (bi < 0 || card < bestCard)) {
				bi, bj, bestShared, bestCard = i, j, s, card
			}
		}
	}
	return bi, bj, bi >= 0
}

// MergeAll combines every job output into the final query result,
// repeatedly merging the pair of partial results sharing the most
// relations (pickMergePair). Section 3.2's connectivity argument
// guarantees a sharing pair always exists for a sufficient T over a
// connected join graph. The returned steps record the operand sizes
// of every merge actually performed, for tree-true cost accounting:
// a merged node re-enters later steps priced at the sum of its
// constituents — the ID payload it carries forward, per the paper's
// "only output keys or data IDs involved" merge argument — not at its
// materialized width, mirroring estimateMergeSteps' recurrence.
func MergeAll(name string, outputs []*relation.Relation) (*relation.Relation, []MergeStep, error) {
	out, steps, _, err := mergeAll(name, outputs, nil)
	return out, steps, err
}

// mergeAll is MergeAll with a tracing shard and per-step row counts:
// each executed pair-merge records a "merge-step" span carrying operand
// names and sizes. The executor passes its own shard; the exported
// MergeAll passes nil.
func mergeAll(name string, outputs []*relation.Relation, sh *obs.Shard) (*relation.Relation, []MergeStep, []MergeFanout, error) {
	if len(outputs) == 0 {
		return nil, nil, nil, fmt.Errorf("core: nothing to merge")
	}
	if len(outputs) == 1 {
		outputs[0].Name = name
		return outputs[0], nil, nil, nil
	}
	work, ops := make([]*mergeNode, len(outputs)), make([]mergeOperand, len(outputs))
	for i, r := range outputs {
		if len(r.Tuples) > math.MaxInt32 {
			return nil, nil, nil, fmt.Errorf("core: merge: %s has %d rows, beyond int32 row IDs", r.Name, len(r.Tuples))
		}
		work[i], ops[i] = leafNode(r), operandOf(r)
	}
	var steps []MergeStep
	var fanout []MergeFanout
	for len(work) > 1 {
		bi, bj, ok := pickMergePair(ops)
		if !ok {
			return nil, steps, fanout, fmt.Errorf("core: merge stalled; no pair of outputs shares a relation")
		}
		stepName := name
		if len(work) > 2 {
			stepName = fmt.Sprintf("%s~m%d", name, len(steps))
		}
		steps = append(steps, MergeStep{LeftBytes: ops[bi].bytes, RightBytes: ops[bj].bytes})
		sp := sh.Start("merge-step",
			obs.A("left", work[bi].name), obs.A("right", work[bj].name),
			obs.A("leftBytes", ops[bi].bytes), obs.A("rightBytes", ops[bj].bytes))
		merged, err := mergeNodes(stepName, work[bi], work[bj], ops[bi].rels, ops[bj].rels)
		if err != nil {
			sp.End(obs.A("error", err.Error()))
			return nil, steps, fanout, err
		}
		sp.End(obs.A("outTuples", merged.n))
		fanout = append(fanout, MergeFanout{stepName, work[bi].n, work[bj].n, merged.n})
		mergedOp := ops[bi].merged(ops[bj], merged.n)
		// Remove j first (j > i), then i; append merged.
		work = append(slices.Delete(slices.Delete(work, bj, bj+1), bi, bi+1), merged)
		ops = append(slices.Delete(slices.Delete(ops, bj, bj+1), bi, bi+1), mergedOp)
	}
	return work[0].materialize(name), steps, fanout, nil
}

// estimateMergeSteps predicts MergeAll's tree on estimated operands:
// the same pair selection, with the merged operand approximated as the
// relation-set union carrying the summed bytes and the smaller
// cardinality (an ID-keyed merge keeps at most the matching rows of
// either side). Stops early if no pair shares a relation — execution
// would fail there too.
func estimateMergeSteps(ops []mergeOperand) []MergeStep {
	ops = append([]mergeOperand(nil), ops...)
	var steps []MergeStep
	for len(ops) > 1 {
		bi, bj, ok := pickMergePair(ops)
		if !ok {
			return steps
		}
		l, r := ops[bi], ops[bj]
		steps = append(steps, MergeStep{LeftBytes: l.bytes, RightBytes: r.bytes})
		ops = append(slices.Delete(slices.Delete(ops, bj, bj+1), bi, bi+1), l.merged(r, min(l.card, r.card)))
	}
	return steps
}
