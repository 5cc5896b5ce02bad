package exec

import (
	"fmt"
	"slices"
	"time"

	"bcq/internal/obs"
	"bcq/internal/plan"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// This file is the pull-based streaming core of evalDQ. A Stream runs the
// same three phases as the classic materializing evaluation — candidate
// growth, per-atom verification, in-memory join — but incrementally, in
// waves of at most BatchSize index probes per plan operation, emitting
// answers as soon as they are provable instead of after the last fetch.
//
// The transformation is sound because bounded evaluation is monotone:
// candidate sets only grow, a row that passes membership and consistency
// checks against a partial candidate set also passes against the final
// one, and a join result over verified rows is a join result over the
// final tables. Any tuple the stream emits is therefore a true answer;
// draining the stream to exhaustion yields exactly the classic result.
//
// Incrementality per phase:
//
//   - growth: each fetch step owns a deltaEnum that enumerates the
//     cross-product lookup box over its X classes' candidate sets as a
//     set of disjoint "new minus old" blocks, so across all waves every
//     combination is probed exactly once — the total probe and fetch
//     counts of a drained stream equal the one-shot run's.
//   - verification: witness retrievals use the same delta enumeration;
//     FromStep collection consumes the source step's recorded probes as
//     they appear. A row whose value is not yet a candidate is parked and
//     rechecked when the candidate sets grow (membership failures are
//     transient; within-atom consistency failures are permanent).
//   - join: semi-naive. When table t gains ΔR_t in a wave, the wave joins
//     new_{<t} ⋈ ΔR_t ⋈ old_{>t}, which partitions the new join results
//     exactly — no combination is produced twice — and projected answers
//     dedupe through one output set shared across waves.
//
// Early termination: with Limit > 0 the stream stops — mid-join if need
// be — once that many distinct answers exist, leaving the enumerators'
// remaining combinations unprobed. The per-step count of those known
// saved probes is reported as StepAccess.Skipped.
type Stream struct {
	r    *run
	opts StreamOptions
	// batch is the per-operation probe budget of one wave (< 0: no cap).
	batch int

	retain   []bool
	stepEnum []*deltaEnum
	vst      []*vstate
	// tables are the row tables of non-Exists verifications, in plan
	// order (vstate.tbl points into this slice's elements).
	tables []*streamTable

	// out is the set of distinct answers emitted so far, in emission
	// order; the tuples Next returns are its arena rows, and out.rows[next:]
	// are the answers not yet returned.
	out  rowSet
	next int
	// join is emitJoin's scratch, reused from wave to wave.
	join joinScratch

	growthDone      bool
	seedOnlyEmitted bool

	// execSpan is the trace span covering the whole evaluation (nil when
	// untraced); waves counts advance calls for span naming. finalized
	// guards the once-per-stream completion bookkeeping (span end,
	// skipped-probe counters).
	execSpan  *obs.Span
	waves     int
	finalized bool

	done    bool
	limited bool
	err     error
}

// StreamOptions tunes one Stream.
type StreamOptions struct {
	// Limit stops the stream after this many distinct answers (≤ 0: no
	// limit). Emitted answers are exact answers; a limited stream simply
	// stops fetching once enough exist.
	Limit int
	// BatchSize caps the index probes one plan operation issues per wave.
	// 0 means DefaultBatchSize; Unbatched (< 0) removes the cap, making a
	// full drain execute exactly like the classic one-pass evaluation.
	BatchSize int
	// Trace, when non-nil, records the evaluation as a span tree: an
	// "exec" span with one child per wave, per-step fetch/verify spans
	// under each wave (shard fan-out spans tagged with the shard index),
	// and a join span. The trace rides out on Result.Trace. Nil disables
	// tracing at near-zero cost (one nil check per site).
	Trace *obs.Trace
	// Metrics, when non-nil, receives the executor's counters and
	// latency histograms (wave duration, probes, tuples fetched/skipped,
	// per-shard probe latency). Nil disables recording.
	Metrics *obs.ExecMetrics
}

// DefaultBatchSize is the wave probe budget when StreamOptions leaves it
// unset: small enough that first answers surface after a few hundred
// fetches, large enough that batched probes still amortize.
const DefaultBatchSize = 64

// Unbatched disables wave batching: each operation drains its pending
// combinations in one wave, so growth completes in a single pass.
const Unbatched = -1

// vstate is the incremental state of one verification.
type vstate struct {
	// enum enumerates witness lookups (nil for Exists and FromStep).
	enum *deltaEnum
	// consumed indexes into the source step's recorded probes (FromStep).
	consumed int
	// tbl is the verification's row table (nil for Exists).
	tbl *streamTable
	// pending holds rows that failed candidate membership; they are
	// rechecked when the row classes' candidate sets grow.
	pending  []pendRow
	pendMark int64
	complete bool
	// row is the scratch row memberRow fills; addRow copies it into the
	// table only when it is new.
	row value.Tuple
}

type pendRow struct {
	combo value.Tuple
	entry storage.IndexEntry
}

// streamTable is one atom's verified row table R_i, grown incrementally.
type streamTable struct {
	classes []int
	// set holds the distinct verified rows in arrival order (set.rows).
	set rowSet
	// waveBase is len(set.rows) at the start of the current wave; rows
	// beyond it are the wave's delta.
	waveBase int
}

// Stream opens a pull-based evaluation of a bounded plan against a store.
// Answers arrive through Next in discovery order; no data is fetched
// until the first Next call, and fetching stops as soon as the buffered
// answers satisfy the caller (or opts.Limit). The stream is not safe for
// concurrent use; the store must satisfy the same requirements as Run's.
func (e *Executor) Stream(p *plan.Plan, db Store, opts StreamOptions) *Stream {
	r := &run{ex: e, p: p, db: db, res: &Result{}, metrics: opts.Metrics}
	s := &Stream{r: r, opts: opts, batch: opts.BatchSize}
	if s.batch == 0 {
		s.batch = DefaultBatchSize
	}
	for _, col := range p.Query.Output {
		r.res.Cols = append(r.res.Cols, col.As)
	}
	if p.Trivial {
		s.done = true
		return s
	}
	r.dq = newDQTracker()
	r.res.StepStats = make([]StepAccess, len(p.Steps))
	r.res.VerifyStats = make([]StepAccess, len(p.Verifies))
	r.V = make([]*candSet, p.Closure.NumClasses())
	for i := range r.V {
		r.V[i] = &candSet{}
	}
	for _, sd := range p.Seeds {
		r.V[sd.Class].add(sd.Val)
	}
	s.retain = make([]bool, len(p.Steps))
	for _, vs := range p.Verifies {
		if vs.FromStep >= 0 {
			s.retain[vs.FromStep] = true
		}
	}
	r.recorded = make([][]fetched, len(p.Steps))
	s.stepEnum = make([]*deltaEnum, len(p.Steps))
	for si, st := range p.Steps {
		s.stepEnum[si] = newDeltaEnum(st.XClasses)
	}
	s.vst = make([]*vstate, len(p.Verifies))
	for vi, vs := range p.Verifies {
		st := &vstate{}
		if !vs.Exists {
			classes := make([]int, len(vs.Row))
			for k, src := range vs.Row {
				classes[k] = src.Class
			}
			st.tbl = &streamTable{classes: classes, set: rowSet{width: len(classes)}}
			st.row = make(value.Tuple, len(classes))
			s.tables = append(s.tables, st.tbl)
			if vs.FromStep < 0 {
				st.enum = newDeltaEnum(vs.XClasses)
			}
		}
		s.vst[vi] = st
	}
	s.out.width = len(p.OutputClasses)
	return s
}

// Stream opens a sequential stream (see Executor.Stream).
func OpenStream(p *plan.Plan, db Store, opts StreamOptions) *Stream {
	return sequential.Stream(p, db, opts)
}

// EmptyStream returns an exhausted stream carrying only output column
// names — the streaming form of an unsatisfiable binding's empty answer.
// It performs no data access.
func EmptyStream(cols []string) *Stream {
	return &Stream{r: &run{res: &Result{Cols: cols}}, done: true}
}

// Cols returns the output column names (empty for Boolean queries).
func (s *Stream) Cols() []string { return s.r.res.Cols }

// Next returns the next answer tuple. ok = false without an error means
// the stream is exhausted (or its limit was reached); every returned
// tuple is a distinct, final answer of the query.
func (s *Stream) Next() (value.Tuple, bool, error) {
	for s.next >= len(s.out.rows) && !s.done && s.err == nil {
		s.advance()
	}
	if s.done || s.err != nil {
		s.finalize()
	}
	if s.err != nil {
		return nil, false, s.err
	}
	if s.next < len(s.out.rows) {
		t := s.out.rows[s.next]
		s.next++
		return t, true, nil
	}
	return nil, false, nil
}

// Done reports whether the stream has no more answers to produce.
func (s *Stream) Done() bool { return s.done && s.next >= len(s.out.rows) }

// Limited reports whether the stream stopped at its answer limit rather
// than by exhausting the evaluation.
func (s *Stream) Limited() bool { return s.limited }

// Close stops the stream. Buffered answers stay readable through Next;
// no further fetching happens. Closing an exhausted stream is a no-op.
func (s *Stream) Close() {
	s.done = true
	s.finalize()
}

// finalize runs the once-per-stream completion bookkeeping: the known
// saved probes land in the skipped counter and the exec span ends with
// its totals. Idempotent; called when the stream concludes (drained,
// limited, errored or closed).
func (s *Stream) finalize() {
	if s.finalized {
		return
	}
	s.finalized = true
	skipped := int64(0)
	for si := range s.stepEnum {
		skipped += s.stepEnum[si].pendingCount()
	}
	for _, st := range s.vst {
		if st.enum != nil {
			skipped += st.enum.pendingCount()
		}
	}
	if m := s.r.metrics; m != nil {
		m.Skipped.Add(skipped)
	}
	if s.execSpan != nil {
		s.execSpan.TagInt("waves", int64(s.waves))
		s.execSpan.TagInt("probes", s.r.lookups)
		s.execSpan.TagInt("fetched", s.r.fetched)
		if s.limited {
			s.execSpan.TagInt("skipped", skipped)
			s.execSpan.Tag("limited", "true")
		}
		s.execSpan.End()
	}
}

// Result snapshots the access statistics accumulated so far: counters,
// |D_Q|, per-step breakdowns (with known saved probes in Skipped when the
// stream stopped early), and the limit disposition. Tuples is left nil —
// the answers flow through Next.
func (s *Stream) Result() *Result {
	res := &Result{
		Cols:    s.r.res.Cols,
		Stats:   storage.Stats{IndexLookups: s.r.lookups, TuplesFetched: s.r.fetched},
		Limit:   s.opts.Limit,
		Limited: s.limited,
		Trace:   s.opts.Trace,
	}
	if s.r.dq != nil {
		res.DQSize = s.r.dq.size()
	}
	if s.r.res.StepStats != nil {
		res.StepStats = append([]StepAccess(nil), s.r.res.StepStats...)
		for si := range res.StepStats {
			res.StepStats[si].Skipped = s.stepEnum[si].pendingCount()
		}
	}
	if s.r.res.VerifyStats != nil {
		res.VerifyStats = append([]StepAccess(nil), s.r.res.VerifyStats...)
		for vi, st := range s.vst {
			if st.enum != nil {
				res.VerifyStats[vi].Skipped = st.enum.pendingCount()
			}
		}
	}
	return res
}

// Drain consumes the stream to exhaustion (or its limit) and returns the
// materialized result with sorted, deduplicated tuples — the classic
// evalDQ contract. The tuples are the answers Next has not returned yet.
func (s *Stream) Drain() (*Result, error) {
	for !s.done && s.err == nil {
		s.advance()
	}
	s.finalize()
	if s.err != nil {
		return nil, s.err
	}
	var tuples []value.Tuple
	if n := len(s.out.rows); s.next < n {
		// The exhausted stream's answer slice becomes the result: the set
		// behind it is never probed again, so sorting it is safe.
		tuples = s.out.rows[s.next:n:n]
		s.next = n
	}
	res := s.Result()
	res.Tuples = tuples
	slices.SortFunc(res.Tuples, value.Tuple.Compare)
	return res, nil
}

// advance runs one wave: a bounded slice of growth, verification in plan
// order, then the semi-naive join of the wave's table deltas. It either
// makes progress (probes issued, rows added, answers emitted) or
// concludes the evaluation. When the stream is traced each wave is a
// span with per-step fetch/verify children; when metrics are wired the
// wave's duration lands in the wave histogram.
func (s *Stream) advance() {
	s.waves++
	var waveStart time.Time
	if s.r.metrics != nil {
		waveStart = time.Now()
	}
	var waveSpan *obs.Span
	if s.opts.Trace != nil {
		if s.execSpan == nil {
			s.execSpan = s.opts.Trace.StartSpan("exec")
		}
		waveSpan = s.execSpan.Child(fmt.Sprintf("wave %d", s.waves))
	}
	defer func() {
		waveSpan.End()
		if s.r.metrics != nil {
			s.r.metrics.WaveSeconds.Observe(time.Since(waveStart).Seconds())
		}
		if s.done || s.err != nil {
			s.finalize()
		}
	}()

	for _, tbl := range s.tables {
		tbl.waveBase = len(tbl.set.rows)
	}

	progress := false
	if !s.growthDone {
		for si := range s.r.p.Steps {
			en := s.stepEnum[si]
			en.refresh(s.r.V)
			xs := en.next(s.r.V, s.batch)
			if len(xs) == 0 {
				continue
			}
			progress = true
			if err := s.growStep(si, xs, waveSpan); err != nil {
				s.err = err
				return
			}
		}
		// Fixpoint check at the wave's final candidate sets. Plans are
		// feed-forward (each class is written by the seeds or exactly one
		// step, ordered before every use), so once every enumerator is
		// empty no later wave can revive one.
		allDone := true
		for si := range s.r.p.Steps {
			s.stepEnum[si].refresh(s.r.V)
			if !s.stepEnum[si].empty() {
				allDone = false
			}
		}
		s.growthDone = allDone
	}

	for vi := range s.r.p.Verifies {
		adv, err := s.advanceVerify(vi, waveSpan)
		if err != nil {
			s.err = err
			return
		}
		if s.done {
			return // a gate failed or a table verified empty
		}
		if adv {
			progress = true
		}
	}

	joinSpan := waveSpan.Child("join")
	emitted, err := s.emitWave()
	joinSpan.End()
	if err != nil {
		s.err = err
		return
	}
	if emitted {
		progress = true
	}
	if s.done {
		return // limit reached mid-join
	}
	if !progress {
		s.done = true // exhausted: nothing pending anywhere
	}
}

// growStep integrates one batch of a fetch step's probes, mirroring the
// classic growth phase: count, track D_Q, bind Y values into candidate
// sets, record for FromStep collectors.
func (s *Stream) growStep(si int, xs []value.Tuple, waveSpan *obs.Span) error {
	st := s.r.p.Steps[si]
	var sp *obs.Span
	if waveSpan != nil {
		sp = waveSpan.Child(fmt.Sprintf("fetch T%d: %s via %s", si+1, s.r.p.Query.Atoms[st.Atom].Alias, st.AC))
	}
	before := s.r.fetched
	groups, owners, err := s.r.probeAC(st.AC, xs, sp)
	if sp != nil {
		sp.TagInt("probes", int64(len(xs))).TagInt("fetched", s.r.fetched-before)
		sp.End()
	}
	if err != nil {
		return err
	}
	s.r.res.StepStats[si].Lookups += int64(len(xs))
	dq := s.r.dq.rel(st.AC.Rel)
	for i, entries := range groups {
		s.r.res.StepStats[si].Fetched += int64(len(entries))
		shard := 0
		if owners != nil {
			shard = owners[i]
		}
		for _, e := range entries {
			s.r.dq.add(dq, shard, e.Pos)
			for _, yi := range st.BindPos {
				s.r.V[st.YClasses[yi]].add(e.Y[yi])
			}
		}
		if s.retain[si] && len(entries) > 0 {
			s.r.recorded[si] = append(s.r.recorded[si], fetched{combo: xs[i], entries: entries, shard: shard})
		}
	}
	return nil
}

// advanceVerify moves one verification forward by up to a batch of work
// and, once the verification is complete, judges emptiness — an empty
// verified table at exhaustion means the whole answer is empty, matching
// the classic short-circuit.
func (s *Stream) advanceVerify(vi int, waveSpan *obs.Span) (bool, error) {
	st := s.vst[vi]
	if st.complete {
		return false, nil
	}
	vs := s.r.p.Verifies[vi]
	var sp *obs.Span
	if waveSpan != nil {
		sp = waveSpan.Child(fmt.Sprintf("verify %s", s.r.p.Query.Atoms[vs.Atom].Alias))
		defer sp.End()
	}
	if vs.Exists {
		ok, err := s.r.db.NonEmpty(s.r.p.Query.Atoms[vs.Atom].Rel)
		if err != nil {
			return false, err
		}
		if !ok {
			s.finishEmpty()
			return true, nil
		}
		s.r.fetched++ // the O(1) existence check read one tuple
		s.r.res.VerifyStats[vi].Fetched = 1
		st.complete = true
		return true, nil
	}

	progress := false
	if vs.FromStep >= 0 {
		recs := s.r.recorded[vs.FromStep]
		for st.consumed < len(recs) {
			f := recs[st.consumed]
			st.consumed++
			progress = true
			for _, e := range f.entries {
				s.offerRow(vi, st, f.combo, e)
			}
		}
	} else {
		st.enum.refresh(s.r.V)
		xs := st.enum.next(s.r.V, s.batch)
		if len(xs) > 0 {
			progress = true
			groups, owners, err := s.r.probeAC(vs.Witness, xs, sp)
			if err != nil {
				return false, err
			}
			sp.TagInt("probes", int64(len(xs)))
			s.r.res.VerifyStats[vi].Lookups += int64(len(xs))
			dq := s.r.dq.rel(vs.Witness.Rel)
			for i, entries := range groups {
				s.r.res.VerifyStats[vi].Fetched += int64(len(entries))
				shard := 0
				if owners != nil {
					shard = owners[i]
				}
				for _, e := range entries {
					s.r.dq.add(dq, shard, e.Pos)
					s.offerRow(vi, st, xs[i], e)
				}
			}
		}
	}

	// Recheck parked rows when the candidate sets behind them have grown.
	if len(st.pending) > 0 {
		if mark := s.candMark(vs); mark != st.pendMark {
			st.pendMark = mark
			keep := st.pending[:0]
			for _, pr := range st.pending {
				if s.memberRow(vs, pr.combo, pr.entry, st.row) {
					s.addRow(st)
					progress = true
				} else {
					keep = append(keep, pr)
				}
			}
			st.pending = keep
		}
	}

	if s.growthDone && s.verifyDrained(vi, st) {
		// Candidate sets are final: parked rows can never pass now.
		st.pending = nil
		st.complete = true
		if len(st.tbl.set.rows) == 0 {
			s.finishEmpty()
		}
	}
	return progress, nil
}

// verifyDrained reports whether a row-table verification has consumed
// every available input.
func (s *Stream) verifyDrained(vi int, st *vstate) bool {
	vs := s.r.p.Verifies[vi]
	if vs.FromStep >= 0 {
		return st.consumed == len(s.r.recorded[vs.FromStep])
	}
	st.enum.refresh(s.r.V)
	return st.enum.empty()
}

// candMark fingerprints the sizes of the candidate sets a verification's
// row values are checked against; parked rows are rechecked only when it
// moves.
func (s *Stream) candMark(vs plan.VerifyStep) int64 {
	var n int64
	for _, src := range vs.Row {
		n += int64(len(s.r.V[src.Class].vals))
	}
	return n
}

// offerRow builds one candidate row. Consistency failures are permanent
// (the values are fixed in the entry); membership failures park the row
// for recheck after the candidate sets grow.
func (s *Stream) offerRow(vi int, st *vstate, combo value.Tuple, e storage.IndexEntry) {
	vs := s.r.p.Verifies[vi]
	get := func(src plan.RowSource) value.Value {
		if src.FromX >= 0 {
			return combo[src.FromX]
		}
		return e.Y[src.FromY]
	}
	for k := 0; k+1 < len(vs.Consistency); k += 2 {
		if get(vs.Consistency[k]) != get(vs.Consistency[k+1]) {
			return
		}
	}
	if s.memberRow(vs, combo, e, st.row) {
		s.addRow(st)
		return
	}
	st.pending = append(st.pending, pendRow{combo: combo, entry: e})
}

// memberRow applies candidate-membership filtering (consistency is the
// caller's, checked once — it never changes), filling row with the
// candidate row's values. It reports whether every value is a candidate.
func (s *Stream) memberRow(vs plan.VerifyStep, combo value.Tuple, e storage.IndexEntry, row value.Tuple) bool {
	for k, src := range vs.Row {
		var v value.Value
		if src.FromX >= 0 {
			v = combo[src.FromX]
		} else {
			v = e.Y[src.FromY]
		}
		if !s.r.V[src.Class].has(v) {
			return false
		}
		row[k] = v
	}
	return true
}

// addRow adds the verification's scratch row to its table, deduplicated;
// only a new row is copied into the table's arena.
func (s *Stream) addRow(st *vstate) {
	st.tbl.set.insert(st.row.Hash(), st.row)
}

// joinInput is one table's contribution to a wave join.
type joinInput struct {
	classes []int
	rows    []value.Tuple
}

// joinScratch is the working memory of emitJoin, owned by one stream and
// reused from wave to wave so a join allocates only when it outgrows
// every earlier one. None of it escapes: answers are copied into the
// output set's arena.
type joinScratch struct {
	inputs []joinInput
	// covered maps a class to its column in the partial join rows (-1:
	// not yet joined).
	covered []int
	// cur and nxt hold the partial join rows flat, width columns each.
	cur, nxt []value.Value
	// sharedTbl/sharedJoin are the positions of the classes an input
	// shares with the partial rows (in the input row and in the partial
	// row); newTbl the input positions that add columns.
	sharedTbl, sharedJoin, newTbl []int
	// head, next and hashes are the hash index over one input's rows:
	// head[h&mask] starts a chain of 1 + row index, linked through next,
	// and hashes[i] is row i's shared-column hash.
	head, next []int32
	hashes     []uint64
	// outSrc maps each output column to a column of the partial row
	// (≥ 0) or of the last input's row (-1 - position).
	outSrc []int
	outRow value.Tuple
}

// emitWave joins the wave's table deltas semi-naively and emits the new
// projected answers.
func (s *Stream) emitWave() (bool, error) {
	if len(s.tables) == 0 {
		// Every verification is an existence gate; once all have passed,
		// the join is the seed tuple alone.
		if s.seedOnlyEmitted || !s.allComplete() {
			return false, nil
		}
		s.seedOnlyEmitted = true
		return s.emitJoin(nil)
	}
	any := false
	for t, tbl := range s.tables {
		delta := tbl.set.rows[tbl.waveBase:]
		if len(delta) == 0 {
			continue
		}
		em, err := s.joinDelta(t, delta)
		if err != nil {
			return any, err
		}
		any = any || em
		if s.done {
			return any, nil
		}
	}
	return any, nil
}

func (s *Stream) allComplete() bool {
	for _, st := range s.vst {
		if !st.complete {
			return false
		}
	}
	return true
}

// joinDelta computes the wave's new join results that include at least
// one row of table t's delta: new_{<t} ⋈ ΔR_t ⋈ old_{>t}. Using the
// pre-wave rows for tables after t partitions the new results across the
// wave's per-table joins, so nothing is computed twice.
func (s *Stream) joinDelta(t int, delta []value.Tuple) (bool, error) {
	inputs := append(s.join.inputs[:0], joinInput{classes: s.tables[t].classes, rows: delta})
	for i, tbl := range s.tables {
		if i == t {
			continue
		}
		rows := tbl.set.rows
		if i > t {
			rows = rows[:tbl.waveBase]
		}
		if len(rows) == 0 {
			return false, nil // some table contributes nothing yet
		}
		inputs = append(inputs, joinInput{classes: tbl.classes, rows: rows})
	}
	s.join.inputs = inputs
	// Smallest-first keeps the intermediate join narrow (rows per input
	// are fixed above; order is free).
	slices.SortStableFunc(inputs, func(a, b joinInput) int { return len(a.rows) - len(b.rows) })
	return s.emitJoin(inputs)
}

// emitJoin hash-joins the inputs on shared classes, starting from the
// seed constants, projects onto the output classes and emits the answers
// not seen before. The last input projects straight into the output set
// without materializing its join rows. Emission order is the nested
// order of the partial rows and, within one, of the matching input rows
// in table order. It aborts as soon as the stream's limit is reached.
func (s *Stream) emitJoin(inputs []joinInput) (bool, error) {
	j := &s.join
	nc := s.r.p.Closure.NumClasses()
	j.covered = slices.Grow(j.covered[:0], nc)[:nc]
	for c := range j.covered {
		j.covered[c] = -1
	}
	cur := j.cur[:0]
	for _, sd := range s.r.p.Seeds {
		j.covered[sd.Class] = len(cur)
		cur = append(cur, sd.Val)
	}
	width, n := len(cur), 1 // n partial rows of width columns each
	defer func() { j.cur = cur }()

	for ti, tbl := range inputs {
		j.sharedTbl, j.sharedJoin, j.newTbl = j.sharedTbl[:0], j.sharedJoin[:0], j.newTbl[:0]
		for k, c := range tbl.classes {
			if col := j.covered[c]; col >= 0 {
				j.sharedTbl = append(j.sharedTbl, k)
				j.sharedJoin = append(j.sharedJoin, col)
			} else {
				j.newTbl = append(j.newTbl, k)
			}
		}
		for i, k := range j.newTbl {
			j.covered[tbl.classes[k]] = width + i
		}
		mask := j.index(tbl.rows)

		last := ti == len(inputs)-1
		var projErr error
		if last {
			projErr = j.project(s.r.p.OutputClasses, width)
		}
		nxt, nn := j.nxt[:0], 0
		emitted := false
		for b := 0; b < n; b++ {
			brow := value.Tuple(cur[b*width : (b+1)*width])
			h := value.HashOf(brow, j.sharedJoin)
			for r := j.head[h&mask]; r != 0; r = j.next[r-1] {
				row := tbl.rows[r-1]
				if j.hashes[r-1] != h || !j.match(brow, row) {
					continue
				}
				if !last {
					nxt = append(nxt, brow...)
					for _, k := range j.newTbl {
						nxt = append(nxt, row[k])
					}
					nn++
					continue
				}
				if projErr != nil {
					return false, projErr
				}
				if s.emit(brow, row) {
					emitted = true
					if s.done {
						return true, nil
					}
				}
			}
		}
		if last {
			return emitted, nil
		}
		cur, j.nxt = nxt, cur
		width += len(j.newTbl)
		n = nn
		if n == 0 {
			return false, nil
		}
	}

	// No inputs: the seed row alone is the join.
	if err := j.project(s.r.p.OutputClasses, width); err != nil {
		return false, err
	}
	return s.emit(value.Tuple(cur), nil), nil
}

// index builds the hash index over one input's rows on the shared
// positions (j.sharedTbl) and returns the bucket mask. Rows are chained
// in reverse so each chain walks in table order.
func (j *joinScratch) index(rows []value.Tuple) uint64 {
	size := 1
	for size < len(rows) {
		size <<= 1
	}
	j.head = slices.Grow(j.head[:0], size)[:size]
	clear(j.head)
	j.next = slices.Grow(j.next[:0], len(rows))[:len(rows)]
	j.hashes = slices.Grow(j.hashes[:0], len(rows))[:len(rows)]
	mask := uint64(size - 1)
	for i := len(rows) - 1; i >= 0; i-- {
		h := value.HashOf(rows[i], j.sharedTbl)
		j.hashes[i] = h
		j.next[i] = j.head[h&mask]
		j.head[h&mask] = int32(i + 1)
	}
	return mask
}

// match confirms a hash match: the partial row and the input row agree
// on every shared class.
func (j *joinScratch) match(brow, row value.Tuple) bool {
	for i, k := range j.sharedTbl {
		if brow[j.sharedJoin[i]] != row[k] {
			return false
		}
	}
	return true
}

// project resolves where each output class is read from once the
// partial rows have the given width: a partial column, or a column the
// current input adds (j.newTbl).
func (j *joinScratch) project(outClasses []int, width int) error {
	j.outSrc = j.outSrc[:0]
	for _, c := range outClasses {
		col := j.covered[c]
		switch {
		case col < 0:
			return fmt.Errorf("exec: output class %d never joined (malformed plan)", c)
		case col < width:
			j.outSrc = append(j.outSrc, col)
		default:
			j.outSrc = append(j.outSrc, -1-j.newTbl[col-width])
		}
	}
	j.outRow = slices.Grow(j.outRow[:0], len(outClasses))[:len(outClasses)]
	return nil
}

// emit projects one join result — a partial row and, when joining the
// last input, one of its rows — onto the output classes (j.outSrc) and
// adds it to the answer set. It reports whether the answer is new and
// stops the stream once the limit's worth of answers exists.
func (s *Stream) emit(brow, row value.Tuple) bool {
	j := &s.join
	for k, src := range j.outSrc {
		if src >= 0 {
			j.outRow[k] = brow[src]
		} else {
			j.outRow[k] = row[-1-src]
		}
	}
	if !s.out.insert(j.outRow.Hash(), j.outRow) {
		return false
	}
	if s.opts.Limit > 0 && len(s.out.rows) >= s.opts.Limit {
		s.limited = true
		s.done = true
	}
	return true
}

// finishEmpty concludes the evaluation with an empty answer (a gate
// failed or a verified table is empty at exhaustion).
func (s *Stream) finishEmpty() {
	s.done = true
}
