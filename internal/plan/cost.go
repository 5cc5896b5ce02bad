package plan

import (
	"math"

	"bcq/internal/core"
	"bcq/internal/deduce"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/stats"
)

// Optimize generates a cost-based bounded plan: same soundness contract
// as QPlan (any firing order whose X-sets are covered before use yields a
// correct bounded plan — the I_E proof does not care which valid
// derivation it replays), but the firing order and the verification
// witnesses are chosen to minimize *expected* tuples fetched under the
// supplied cardinality statistics, instead of taking the first feasible
// derivation.
//
// The cost of a fetch step is (∏ estimated candidate counts of its X
// classes) · N̂, where N̂ is the constraint's observed average group size
// (Entries/Groups) — the declared bound N when cs is nil or silent —
// capped at the constraint's total distinct entries (a plan cannot fetch
// more distinct index entries than exist). Bound-tightening propagates
// through the deduction closure: the classes a step binds inherit its
// estimated fetch count as their candidate estimate, so a tight early
// step shrinks every later step's probe fan-out.
//
// The search is exhaustive (branch-and-bound DFS over firing sequences,
// verification cost included at the leaves) for queries of at most
// exhaustiveAtomLimit atoms, within a node budget; larger queries — or a
// blown budget — fall back to a greedy minimum-marginal-cost order. The
// naive derivation order is always evaluated too and wins ties, so
// Optimize never returns a plan its own model scores worse than QPlan's.
func Optimize(an *core.Analysis, cs *stats.Snapshot) (*Plan, error) {
	eb, trivial, err := analyze(an)
	if trivial != nil || err != nil {
		return trivial, err
	}
	m := &costModel{an: an, cs: cs}
	seq := m.searchOrder(eb)
	p, err := emit(an, eb, seq, m.costWitness(m.estAfter(seq)))
	if err != nil {
		// Every searched sequence is feasible by construction; this is a
		// belt-and-braces fallback to the derivation order.
		p, err = emit(an, eb, derivationSeq(eb), naiveWitness(an))
		if err != nil {
			return nil, err
		}
	}
	AnnotateEstimates(p, cs)
	p.CostBased = true
	return p, nil
}

// AnnotateEstimates fills the per-step and plan-total cost estimates of
// any plan — QPlan's included — from the given statistics (nil falls
// back to declared bounds), without changing the plan's structure. It is
// how `bqrun -explain` and the conformance goldens put naive and
// cost-based plans on one scale.
func AnnotateEstimates(p *Plan, cs *stats.Snapshot) {
	if p.Trivial {
		p.EstFetch = 0
		return
	}
	m := &costModel{cs: cs}
	cl := p.Closure
	est := make([]float64, cl.NumClasses())
	for i := range est {
		est[i] = math.Inf(1)
	}
	for _, c := range cl.XC().Members() {
		est[c] = 1
	}
	total := 0.0
	for i := range p.Steps {
		st := &p.Steps[i]
		lookups, fetch := m.stepEst(est, st.XClasses, st.AC)
		st.EstLookups, st.EstFetch = lookups, fetch
		for _, yi := range st.BindPos {
			est[st.YClasses[yi]] = fetch
		}
		total += fetch
	}
	for i := range p.Verifies {
		vs := &p.Verifies[i]
		switch {
		case vs.Exists:
			// One fetched tuple, zero probes: NonEmpty is an O(1)
			// existence check, and the executor counts it the same way.
			vs.EstLookups, vs.EstFetch = 0, 1
			total++
		case vs.FromStep >= 0:
			vs.EstLookups, vs.EstFetch = 0, 0
		default:
			lookups, fetch := m.stepEst(est, vs.XClasses, vs.Witness)
			vs.EstLookups, vs.EstFetch = lookups, fetch
			total += fetch
		}
	}
	p.EstFetch = total
}

// lookupWeight prices one index probe relative to one fetched tuple: far
// cheaper, but not free, so zero-fetch orders still prefer fewer probes
// and cost ties break deterministically toward lighter lookup plans.
const lookupWeight = 1e-3

// exhaustiveAtomLimit caps exhaustive ordering search by query size;
// beyond it (or past the node budget) the greedy order is used.
const exhaustiveAtomLimit = 8

// searchNodeBudget caps DFS node expansions, a hard stop for adversarial
// act counts (the act list grows with |Q|·|A|, not just atoms).
const searchNodeBudget = 20000

// costModel scores firing sequences against a cardinality snapshot.
type costModel struct {
	an *core.Analysis
	cs *stats.Snapshot
}

// shape returns a constraint's estimated group size and total distinct
// entries: observed values when statistics cover it, the declared bound
// N with no entry cap otherwise. An index observed empty estimates 0 —
// probing it returns nothing.
func (m *costModel) shape(ac schema.AccessConstraint) (avg, entries float64) {
	if m.cs != nil {
		if c, ok := m.cs.AC(ac.Key()); ok {
			if c.Groups == 0 {
				return 0, 0
			}
			return c.AvgGroup(), float64(c.Entries)
		}
	}
	return float64(ac.N), math.Inf(1)
}

// stepEst estimates one probe batch: lookups = ∏ candidate estimates
// over the distinct X classes, fetch = lookups · N̂ capped at the
// constraint's total distinct entries.
func (m *costModel) stepEst(est []float64, xClasses []int, ac schema.AccessConstraint) (lookups, fetch float64) {
	lookups = 1
	seen := map[int]bool{}
	for _, c := range xClasses {
		if !seen[c] {
			seen[c] = true
			lookups *= est[c]
		}
	}
	avg, entries := m.shape(ac)
	fetch = lookups * avg
	if fetch > entries {
		fetch = entries
	}
	return lookups, fetch
}

// goalSets returns the classes a plan must populate (every atom's
// parameter classes) and the classes worth binding at all (the goal plus
// every actualized constraint's X classes — binding anything else cannot
// enable a firing or satisfy verification).
func (m *costModel) goalSets() (goal, interesting spc.ClassSet) {
	cl := m.an.Closure
	goal = spc.NewClassSet(cl.NumClasses())
	for i := range cl.Query().Atoms {
		goal.AddAll(cl.AtomParams(i))
	}
	interesting = goal.Clone()
	for _, act := range m.an.Acts {
		for _, c := range act.XClasses {
			interesting.Add(c)
		}
	}
	return goal, interesting
}

// seedEst returns the initial per-class candidate estimates: 1 for the
// constant classes, +Inf (never read before binding) elsewhere.
func (m *costModel) seedEst() ([]float64, spc.ClassSet) {
	cl := m.an.Closure
	est := make([]float64, cl.NumClasses())
	for i := range est {
		est[i] = math.Inf(1)
	}
	populated := spc.NewClassSet(cl.NumClasses())
	for _, c := range cl.XC().Members() {
		est[c] = 1
		populated.Add(c)
	}
	return est, populated
}

// bindable lists the classes an act would newly populate, restricted to
// the interesting set. Empty means firing the act is pointless.
func (m *costModel) bindable(act deduce.Actualized, populated, interesting spc.ClassSet) []int {
	var out []int
	seen := map[int]bool{}
	for _, c := range act.YClasses {
		if !seen[c] && !populated.Has(c) && interesting.Has(c) {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// ready reports whether every X class of an act is populated.
func ready(act deduce.Actualized, populated spc.ClassSet) bool {
	for _, c := range act.XClasses {
		if !populated.Has(c) {
			return false
		}
	}
	return true
}

// searchOrder picks the firing sequence Optimize emits: the best of the
// naive derivation order, the greedy order and — for small queries,
// budget permitting — the branch-and-bound optimum, all scored by
// seqCost, deterministically.
func (m *costModel) searchOrder(eb core.EBResult) []int {
	goal, interesting := m.goalSets()
	bestSeq := derivationSeq(eb)
	best := m.seqCost(bestSeq)

	if g := m.greedy(goal, interesting); g != nil {
		if c := m.seqCost(g); c < best {
			bestSeq, best = g, c
		}
	}
	if len(m.an.Closure.Query().Atoms) <= exhaustiveAtomLimit {
		s := &search{m: m, goal: goal, interesting: interesting, best: best, budget: searchNodeBudget}
		est, populated := m.seedEst()
		s.dfs(make([]int, 0, len(m.an.Acts)), make([]bool, len(m.an.Acts)), populated, est, 0)
		if s.bestSeq != nil {
			bestSeq = s.bestSeq
		}
	}
	return bestSeq
}

// replay runs a firing sequence through the cost model (skipping
// unready or pointless firings), returning the firings actually taken,
// the final per-class estimates, and the accumulated step cost. It is
// the single source of truth for estimate propagation: seqCost and
// estAfter are views of it, and the emitted plan's annotations follow
// the same stepEst/bind rule.
func (m *costModel) replay(seq []int) (chosen []int, est []float64, cost float64) {
	_, interesting := m.goalSets()
	est, populated := m.seedEst()
	for _, ai := range seq {
		act := m.an.Acts[ai]
		if !ready(act, populated) {
			continue
		}
		binds := m.bindable(act, populated, interesting)
		if len(binds) == 0 {
			continue
		}
		lookups, fetch := m.stepEst(est, act.XClasses, act.AC)
		cost += fetch + lookupWeight*lookups
		for _, c := range binds {
			populated.Add(c)
			est[c] = fetch
		}
		chosen = append(chosen, ai)
	}
	return chosen, est, cost
}

// seqCost is a sequence's full estimated cost, verification included.
func (m *costModel) seqCost(seq []int) float64 {
	chosen, est, cost := m.replay(seq)
	return cost + m.verifyCost(chosen, est)
}

// estAfter returns the per-class candidate estimates at the end of a
// sequence — the state costWitness prices retrievals in.
func (m *costModel) estAfter(seq []int) []float64 {
	_, est, _ := m.replay(seq)
	return est
}

// greedy builds a sequence by repeatedly firing the cheapest useful act
// until the goal is covered (nil if it gets stuck, which EBCheck rules
// out for the sequences that matter). Ties break toward the lower act
// index, so the order is deterministic.
func (m *costModel) greedy(goal, interesting spc.ClassSet) []int {
	est, populated := m.seedEst()
	used := make([]bool, len(m.an.Acts))
	var seq []int
	for !populated.ContainsAll(goal) {
		bestAi := -1
		bestCost := math.Inf(1)
		var bestFetch float64
		var bestBinds []int
		for ai, act := range m.an.Acts {
			if used[ai] || !ready(act, populated) {
				continue
			}
			binds := m.bindable(act, populated, interesting)
			if len(binds) == 0 {
				continue
			}
			lookups, fetch := m.stepEst(est, act.XClasses, act.AC)
			if c := fetch + lookupWeight*lookups; c < bestCost {
				bestAi, bestCost, bestFetch, bestBinds = ai, c, fetch, binds
			}
		}
		if bestAi < 0 {
			return nil
		}
		used[bestAi] = true
		seq = append(seq, bestAi)
		for _, c := range bestBinds {
			populated.Add(c)
			est[c] = bestFetch
		}
	}
	return seq
}

// verifyCost estimates phase 2 given the chosen fetch steps: free for
// atoms some chosen step covers, one probe for parameterless atoms, the
// cheapest witness retrieval otherwise.
func (m *costModel) verifyCost(chosen []int, est []float64) float64 {
	cl := m.an.Closure
	total := 0.0
	for i, atom := range cl.Query().Atoms {
		attrs := cl.AtomParamAttrs(i)
		if len(attrs) == 0 {
			total++
			continue
		}
		if m.covered(i, attrs, chosen) {
			continue
		}
		if _, lookups, fetch, ok := m.bestWitness(i, atom.Rel, attrs, est); ok {
			total += fetch + lookupWeight*lookups
		}
	}
	return total
}

// covered reports whether some chosen act on the atom spans all the
// atom's parameter attributes (the free-collection condition of emit).
func (m *costModel) covered(atom int, attrs []string, chosen []int) bool {
	for _, ai := range chosen {
		act := m.an.Acts[ai]
		if act.Atom != atom {
			continue
		}
		have := map[string]bool{}
		for _, a := range act.AC.X {
			have[a] = true
		}
		for _, a := range act.AC.Y {
			have[a] = true
		}
		all := true
		for _, a := range attrs {
			if !have[a] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// bestWitness picks the estimated-cheapest indexedness witness of
// (atom, attrs); declaration order breaks ties.
func (m *costModel) bestWitness(atom int, rel string, attrs []string, est []float64) (w schema.AccessConstraint, lookups, fetch float64, ok bool) {
	cl := m.an.Closure
	cost := math.Inf(1)
	for _, cand := range m.an.Access.IndexedAll(rel, attrs) {
		var classes []int
		for _, a := range cand.X {
			classes = append(classes, cl.MustClass(spc.AttrRef{Atom: atom, Attr: a}))
		}
		lo, fe := m.stepEst(est, classes, cand)
		if c := fe + lookupWeight*lo; c < cost {
			cost, w, lookups, fetch, ok = c, cand, lo, fe, true
		}
	}
	return w, lookups, fetch, ok
}

// costWitness is the cost-based witness rule emit uses for Optimize:
// cheapest estimated retrieval, falling back to the declared-N rule when
// statistics offer nothing (bestWitness always finds a witness whenever
// Indexed does, so the fallback only guards the empty-attrs edge).
func (m *costModel) costWitness(est []float64) witnessPicker {
	return func(atom int, rel string, attrs []string, _ []deduce.Bound) (schema.AccessConstraint, bool) {
		if w, _, _, ok := m.bestWitness(atom, rel, attrs, est); ok {
			return w, true
		}
		return m.an.Access.Indexed(rel, attrs)
	}
}

// search is the branch-and-bound DFS state.
type search struct {
	m                 *costModel
	goal, interesting spc.ClassSet
	best              float64
	bestSeq           []int
	nodes, budget     int
}

// dfs extends the sequence with every useful ready act, pruning branches
// whose partial cost already matches the incumbent. Acts are tried in
// index order, so equal-cost optima resolve deterministically (strict
// improvement required to replace the incumbent).
func (s *search) dfs(seq []int, used []bool, populated spc.ClassSet, est []float64, cost float64) {
	if cost >= s.best {
		return
	}
	if populated.ContainsAll(s.goal) {
		if total := cost + s.m.verifyCost(seq, est); total < s.best {
			s.best = total
			s.bestSeq = append([]int(nil), seq...)
		}
		return
	}
	if s.nodes >= s.budget {
		return
	}
	s.nodes++
	for ai, act := range s.m.an.Acts {
		if used[ai] || !ready(act, populated) {
			continue
		}
		binds := s.m.bindable(act, populated, s.interesting)
		if len(binds) == 0 {
			continue
		}
		lookups, fetch := s.m.stepEst(est, act.XClasses, act.AC)
		nextEst := append([]float64(nil), est...)
		nextPop := populated.Clone()
		for _, c := range binds {
			nextPop.Add(c)
			nextEst[c] = fetch
		}
		used[ai] = true
		s.dfs(append(seq, ai), used, nextPop, nextEst, cost+fetch+lookupWeight*lookups)
		used[ai] = false
	}
}
