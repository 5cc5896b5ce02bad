package plan

import (
	"bcq/internal/core"
	"bcq/internal/deduce"
	"bcq/internal/schema"
	"bcq/internal/spc"
)

// QPlan generates a bounded query plan for an effectively bounded query,
// implementing the algorithm of Section 5.1. It returns a
// *NotEffectivelyBoundedError when EBCheck rejects the query.
//
// The construction:
//
//  1. run EBCheck; its closure derivation proves X_C ↦_{I_E} (X^i_Q, M_i)
//     for every atom (Theorem 4);
//  2. prune the derivation backwards to the firings that contribute to
//     covering parameter classes (directly or through the X-sets of later
//     kept firings) — the paper's "objects" o_i with their proofs o_i.P;
//  3. emit the kept firings, in derivation order, as fetch steps over the
//     candidate value sets, tracking a per-class candidate bound;
//  4. emit one verification step per atom: collected from a fetch step on
//     the same atom when that step's attributes cover X^i_Q (no extra
//     fetches), otherwise a retrieval through the indexedness witness of
//     X^i_Q (the Combination rule made executable);
//  5. the bound M = Σ step bounds is the plan's worst-case data access.
//
// QPlan keeps the derivation's own firing order — constraints ascending by
// declared N, fired as they become ready. Optimize searches alternative
// orders (and witness choices) against cardinality statistics; both share
// the emission below, so every plan either produces carries the same
// soundness argument.
//
// Complexity: O(|Q||A|) beyond the EBCheck closure, well within the
// paper's O(|Q|²|A|³).
func QPlan(an *core.Analysis) (*Plan, error) {
	eb, trivial, err := analyze(an)
	if trivial != nil || err != nil {
		return trivial, err
	}
	return emit(an, eb, derivationSeq(eb), naiveWitness(an))
}

// analyze runs the shared front half of both planners: the trivial
// (unsatisfiable) short-circuit and EBCheck. Exactly one of the three
// results is meaningful.
func analyze(an *core.Analysis) (eb core.EBResult, trivial *Plan, err error) {
	cl := an.Closure
	if !cl.Satisfiable() {
		p := &Plan{Query: cl.Query(), Closure: cl, Trivial: true}
		p.CombBound = deduce.NewBound(0)
		p.FetchBound = deduce.NewBound(0)
		return core.EBResult{}, p, nil
	}
	eb = an.EBCheck()
	if !eb.EffectivelyBounded {
		return eb, nil, &NotEffectivelyBoundedError{Result: eb}
	}
	return eb, nil, nil
}

// derivationSeq flattens the EBCheck derivation into its firing sequence
// (act indices, in firing order) — the naive plan order.
func derivationSeq(eb core.EBResult) []int {
	seq := make([]int, len(eb.Derivation.Steps))
	for i, st := range eb.Derivation.Steps {
		seq[i] = st.Act
	}
	return seq
}

// witnessPicker chooses the indexedness witness a verification step
// retrieves through, given the atom's parameter attributes and the
// per-class candidate bounds at emission time.
type witnessPicker func(atom int, rel string, attrs []string, cand []deduce.Bound) (schema.AccessConstraint, bool)

// naiveWitness is QPlan's witness rule: the declared-N-minimal witness
// (AccessSchema.Indexed).
func naiveWitness(an *core.Analysis) witnessPicker {
	return func(_ int, rel string, attrs []string, _ []deduce.Bound) (schema.AccessConstraint, bool) {
		return an.Access.Indexed(rel, attrs)
	}
}

// emit turns a firing sequence into a bounded plan: backward-prune the
// sequence to the firings that contribute to covering parameter classes,
// then run steps 3–5 of the QPlan construction over the kept firings in
// order. The sequence may be any order in which every firing's X classes
// are covered (by X_C or earlier firings) before it fires — the
// derivation order and every order the optimizer searches satisfy this
// by construction.
func emit(an *core.Analysis, eb core.EBResult, seq []int, pick witnessPicker) (*Plan, error) {
	cl := an.Closure
	q := cl.Query()
	p := &Plan{Query: q, Closure: cl}

	// Parameter classes that need candidate values.
	needed := spc.NewClassSet(cl.NumClasses())
	for i := range q.Atoms {
		needed.AddAll(cl.AtomParams(i))
	}

	// Simulate first-covers: firstBind[k] lists the classes firing k is
	// the first in the sequence to cover (the derivation's NewClasses,
	// generalized to arbitrary sequences).
	covered := cl.XC().Clone()
	firstBind := make([][]int, len(seq))
	for k, ai := range seq {
		for _, c := range an.Acts[ai].YClasses {
			if !covered.Has(c) {
				covered.Add(c)
				firstBind[k] = append(firstBind[k], c)
			}
		}
	}

	// Step 2: backward pruning. keep[k] marks firings that first-cover a
	// needed class; the X classes of kept firings become needed in turn.
	keep := make([]bool, len(seq))
	for k := len(seq) - 1; k >= 0; k-- {
		useful := false
		for _, c := range firstBind[k] {
			if needed.Has(c) {
				useful = true
				break
			}
		}
		if !useful {
			continue
		}
		keep[k] = true
		for _, c := range an.Acts[seq[k]].XClasses {
			needed.Add(c)
		}
	}

	// Seeds: the constant classes, in class order.
	for _, c := range cl.XC().Members() {
		if v, ok := cl.ConstOf(c); ok {
			p.Seeds = append(p.Seeds, Seed{Class: c, Val: v})
		}
	}

	// Step 3: forward emission with per-class candidate bounds.
	cand := make([]deduce.Bound, cl.NumClasses())
	for i := range cand {
		cand[i] = deduce.Unbounded
	}
	populated := spc.NewClassSet(cl.NumClasses())
	for _, c := range cl.XC().Members() {
		cand[c] = deduce.NewBound(1)
		populated.Add(c)
	}
	fetch := deduce.NewBound(0)
	for k, ai := range seq {
		if !keep[k] {
			continue
		}
		act := an.Acts[ai]
		fs := FetchStep{Atom: act.Atom, AC: act.AC}
		xb := deduce.NewBound(1)
		seenX := map[int]bool{}
		for _, attr := range act.AC.X {
			c := cl.MustClass(spc.AttrRef{Atom: act.Atom, Attr: attr})
			fs.XClasses = append(fs.XClasses, c)
			if !seenX[c] {
				seenX[c] = true
				xb = xb.Mul(cand[c])
			}
		}
		n := deduce.NewBound(act.AC.N)
		fs.StepBound = xb.Mul(n)
		yb := xb.Mul(n)
		for yi, attr := range act.AC.Y {
			c := cl.MustClass(spc.AttrRef{Atom: act.Atom, Attr: attr})
			fs.YClasses = append(fs.YClasses, c)
			if !populated.Has(c) && needed.Has(c) {
				fs.BindPos = append(fs.BindPos, yi)
			}
		}
		for _, yi := range fs.BindPos {
			c := fs.YClasses[yi]
			populated.Add(c)
			cand[c] = yb
		}
		fetch = fetch.Add(fs.StepBound)
		p.Steps = append(p.Steps, fs)
	}

	// Step 4: verification per atom.
	for i, atom := range q.Atoms {
		attrs := cl.AtomParamAttrs(i)
		if len(attrs) == 0 {
			vs := VerifyStep{Atom: i, Exists: true, FromStep: -1, StepBound: deduce.NewBound(1)}
			fetch = fetch.Add(vs.StepBound)
			p.Verifies = append(p.Verifies, vs)
			continue
		}

		// Try to collect R_i from a fetch step on this atom whose
		// attributes cover X^i_Q (attribute-level, so within-atom
		// equalities stay checkable).
		vs := VerifyStep{Atom: i, FromStep: -1}
		for j, fs := range p.Steps {
			if fs.Atom != i {
				continue
			}
			have := map[string]bool{}
			for _, a := range fs.AC.X {
				have[a] = true
			}
			for _, a := range fs.AC.Y {
				have[a] = true
			}
			coversAll := true
			for _, a := range attrs {
				if !have[a] {
					coversAll = false
					break
				}
			}
			if coversAll {
				vs.FromStep = j
				buildRowSources(&vs, cl, i, attrs, fs.AC.X, fs.AC.Y)
				vs.StepBound = deduce.NewBound(0)
				break
			}
		}
		if vs.FromStep < 0 {
			w, ok := pick(i, atom.Rel, attrs, cand)
			if !ok {
				// EBCheck guarantees indexedness; reaching here is a bug.
				return nil, &NotEffectivelyBoundedError{Result: eb}
			}
			vs.Witness = w
			xb := deduce.NewBound(1)
			seen := map[int]bool{}
			for _, attr := range w.X {
				c := cl.MustClass(spc.AttrRef{Atom: i, Attr: attr})
				vs.XClasses = append(vs.XClasses, c)
				if !seen[c] {
					seen[c] = true
					xb = xb.Mul(cand[c])
				}
			}
			buildRowSources(&vs, cl, i, attrs, w.X, w.Y)
			vs.StepBound = xb.Mul(deduce.NewBound(w.N))
			fetch = fetch.Add(vs.StepBound)
		}
		p.Verifies = append(p.Verifies, vs)
	}

	// Step 5: output projection and bounds.
	for _, col := range q.Output {
		p.OutputClasses = append(p.OutputClasses, cl.MustClass(col.Ref))
	}
	p.CandBound = cand
	comb := deduce.NewBound(1)
	allParams := spc.NewClassSet(cl.NumClasses())
	for i := range q.Atoms {
		allParams.AddAll(cl.AtomParams(i))
	}
	for _, c := range allParams.Members() {
		comb = comb.Mul(cand[c])
	}
	p.CombBound = comb
	p.FetchBound = fetch

	// Sanity: every parameter class must have a populated candidate set.
	if missing := diff(allParams, populated); len(missing) > 0 {
		return nil, &NotEffectivelyBoundedError{Result: eb}
	}
	return p, nil
}

// buildRowSources fills vs.Row and vs.Consistency for the atom's parameter
// attributes, drawn from the lookup attributes xAttrs (combo positions) and
// entry attributes yAttrs (entry Y positions).
func buildRowSources(vs *VerifyStep, cl *spc.Closure, atom int, paramAttrs, xAttrs, yAttrs []string) {
	xPos := map[string]int{}
	for k, a := range xAttrs {
		xPos[a] = k
	}
	yPos := map[string]int{}
	for k, a := range yAttrs {
		yPos[a] = k
	}
	first := map[int]RowSource{} // class -> first source
	for _, a := range paramAttrs {
		c := cl.MustClass(spc.AttrRef{Atom: atom, Attr: a})
		src := RowSource{Class: c, FromX: -1, FromY: -1}
		if k, ok := xPos[a]; ok {
			src.FromX = k
		} else if k, ok := yPos[a]; ok {
			src.FromY = k
		} else {
			// The caller checked coverage; unreachable.
			continue
		}
		if prev, seen := first[c]; seen {
			// Within-atom equality: both occurrences must agree in the
			// entry. Two X positions agree by construction (combos are
			// built per class); record the pair otherwise.
			if !(prev.FromX >= 0 && src.FromX >= 0) {
				vs.Consistency = append(vs.Consistency, prev, src)
			}
			continue
		}
		first[c] = src
		vs.Row = append(vs.Row, src)
	}
}

// diff returns the members of a not in b.
func diff(a, b spc.ClassSet) []int {
	var out []int
	for _, c := range a.Members() {
		if !b.Has(c) {
			out = append(out, c)
		}
	}
	return out
}
