// Fence-repair synthesis: from diagnosing weak behaviours to fixing them.
// The engine takes a test whose exists-condition is observable under a
// model, enumerates candidate fence edits on the static critical cycles
// the linter already computes (insertions at program-order positions over
// the scope ladder membar.cta → membar.gl → membar.sys, plus widening an
// existing too-narrow fence in place), ranks them statically — by how many
// critical segments the edits cover (covered in cycles.go, over the
// graph's once-built order closures), then by cost: fences inserted, total
// scope width, program-order position — and verifies candidates in rank
// order against a judge oracle until the behaviour is Never. The winner
// is greedily reduced to a 1-minimal set: dropping any single edit makes
// the behaviour observable again. Everything is deterministic: same test, same policy,
// same oracle → same actions, same ledger.
//
// The oracle is injected (rather than calling core.Judge directly) because
// internal/core already imports this package for the static prefilter;
// core/repair.go binds the real judge and is what CLIs and the service
// call.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// RepairAction is one fence edit, in wire form. Index is an instruction
// index into the thread's original (pre-repair) program: for "insert" the
// fence goes immediately before that instruction, for "strengthen" it is
// the position of the existing membar being widened. Scopes are the PTX
// suffixes "cta", "gl", "sys".
type RepairAction struct {
	Kind     string `json:"kind"` // "insert" or "strengthen"
	Thread   int    `json:"thread"`
	Index    int    `json:"index"`
	Scope    string `json:"scope"`
	OldScope string `json:"old_scope,omitempty"` // strengthen only
}

// String renders the action as one human-readable line.
func (a RepairAction) String() string {
	if a.Kind == "strengthen" {
		return fmt.Sprintf("T%d: strengthen #%d membar.%s -> membar.%s", a.Thread, a.Index, a.OldScope, a.Scope)
	}
	return fmt.Sprintf("T%d: insert membar.%s before #%d", a.Thread, a.Scope, a.Index)
}

// RepairAttempt is one oracle-checked candidate in the ledger.
type RepairAttempt struct {
	Actions []RepairAction `json:"actions"`
	Outcome string         `json:"outcome"` // "verified" or "still-observable"
}

// RepairResult is the engine's answer. Verified with empty Actions means
// the behaviour was already forbidden and no repair is needed; Verified
// with actions carries the minimal verified edit set and the mutated test;
// not Verified means no candidate survived the judge, with Reason saying
// why. Attempts is the full ledger of oracle-checked candidates (including
// the minimality probes), in check order.
type RepairResult struct {
	Verified bool            `json:"verified"`
	Actions  []RepairAction  `json:"actions,omitempty"`
	Repaired *litmus.Test    `json:"-"`
	Attempts []RepairAttempt `json:"attempts,omitempty"`
	Reason   string          `json:"reason,omitempty"`
}

// NoRepairNeeded reports whether the test's behaviour was already
// forbidden, so the (verified) repair is empty.
func (r *RepairResult) NoRepairNeeded() bool { return r.Verified && len(r.Actions) == 0 }

// Summary renders the result as one line for CLI output.
func (r *RepairResult) Summary() string {
	switch {
	case r.NoRepairNeeded():
		return "already forbidden; no repair needed"
	case r.Verified:
		parts := make([]string, len(r.Actions))
		for i, a := range r.Actions {
			parts[i] = a.String()
		}
		return fmt.Sprintf("verified repair, %d fence edit(s): %s", len(r.Actions), strings.Join(parts, "; "))
	default:
		return "no repair found: " + r.Reason
	}
}

// RepairOracle reports whether the test's exists-condition is observable
// under the target model. core/repair.go binds core.Judge here.
type RepairOracle func(*litmus.Test) (bool, error)

// RepairOptions bounds the search. Zero values select the defaults.
type RepairOptions struct {
	// MaxAttempts caps oracle-checked candidates (default 48). The ledger
	// never grows past it.
	MaxAttempts int
	// MaxGenerate caps statically ranked candidate sets (default 512);
	// combinations past the cap are never considered.
	MaxGenerate int
}

// SynthesizeRepair searches for the cheapest set of fence edits that makes
// the test's exists-condition unobservable under the oracle's model. The
// returned error is reserved for oracle failures and internal mutation
// bugs; an unrepairable test comes back as a result with Verified false.
func SynthesizeRepair(t *litmus.Test, p Policy, observable RepairOracle, opts RepairOptions) (*RepairResult, error) {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 48
	}
	if opts.MaxGenerate <= 0 {
		opts.MaxGenerate = 512
	}
	obs, err := observable(t)
	if err != nil {
		return nil, fmt.Errorf("analysis: repair oracle on %s: %w", t.Name, err)
	}
	if !obs {
		return &RepairResult{Verified: true, Repaired: t}, nil
	}
	g := graphOf(t)
	sites := repairSites(g)
	if len(sites) == 0 {
		return &RepairResult{Reason: "static analysis found no unordered critical-cycle segment to fence"}, nil
	}
	res := &RepairResult{}
	for _, actions := range repairCandidates(g, sites, opts.MaxGenerate) {
		if len(res.Attempts) >= opts.MaxAttempts {
			break
		}
		mut, err := ApplyRepair(t, actions)
		if err != nil {
			return nil, err
		}
		obs, err := observable(mut)
		if err != nil {
			return nil, fmt.Errorf("analysis: repair oracle on %s: %w", mut.Name, err)
		}
		if obs {
			res.Attempts = append(res.Attempts, RepairAttempt{Actions: actions, Outcome: "still-observable"})
			continue
		}
		res.Attempts = append(res.Attempts, RepairAttempt{Actions: actions, Outcome: "verified"})
		minimal, err := minimizeRepair(t, actions, observable, res)
		if err != nil {
			return nil, err
		}
		repaired, err := ApplyRepair(t, minimal)
		if err != nil {
			return nil, err
		}
		res.Verified = true
		res.Actions = minimal
		res.Repaired = repaired
		return res, nil
	}
	res.Reason = fmt.Sprintf("no verified repair among %d oracle-checked candidates", len(res.Attempts))
	return res, nil
}

// ApplyRepair mutates the test by the given edits through the litmus
// insertion API and returns the fresh, validated result. All indices refer
// to the original program: strengthens are applied first (they do not
// shift positions), then insertions from the highest position down so
// earlier indices stay valid. With no actions the original test is
// returned unchanged.
func ApplyRepair(t *litmus.Test, actions []RepairAction) (*litmus.Test, error) {
	acts := canonActions(actions)
	mut := t
	var err error
	for _, a := range acts {
		if a.Kind != "strengthen" {
			continue
		}
		sc, scErr := scopeFromName(a.Scope)
		if scErr != nil {
			return nil, scErr
		}
		if mut, err = mut.WithFenceStrengthened(a.Thread, a.Index, sc); err != nil {
			return nil, err
		}
	}
	for i := len(acts) - 1; i >= 0; i-- {
		a := acts[i]
		switch a.Kind {
		case "strengthen":
		case "insert":
			sc, scErr := scopeFromName(a.Scope)
			if scErr != nil {
				return nil, scErr
			}
			if mut, err = mut.WithFenceInserted(a.Thread, a.Index, sc); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("analysis: unknown repair action kind %q", a.Kind)
		}
	}
	return mut, nil
}

// repairSite is one critical segment to fence: event indices bound the
// coverage check, instruction indices bound the insertion ladder.
type repairSite struct {
	thread         int
	aIdx, bIdx     int // event indices of the segment endpoints
	aInstr, bInstr int // instruction indices of the segment endpoints
	required       ptx.Scope
}

// repairSites dedupes the linter's critical segments into sites, keeping
// the widest required scope per segment, sorted by position.
func repairSites(g *graph) []repairSite {
	var sites []repairSite
	for _, seg := range g.criticalSegments() {
		s := repairSite{
			thread: seg.a.thread,
			aIdx:   seg.a.index, bIdx: seg.b.index,
			aInstr: seg.a.instr, bInstr: seg.b.instr,
			required: seg.required,
		}
		merged := false
		for i := range sites {
			if sites[i].thread == s.thread && sites[i].aIdx == s.aIdx && sites[i].bIdx == s.bIdx {
				if s.required > sites[i].required {
					sites[i].required = s.required
				}
				merged = true
				break
			}
		}
		if !merged {
			sites = append(sites, s)
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.thread != b.thread {
			return a.thread < b.thread
		}
		if a.aIdx != b.aIdx {
			return a.aIdx < b.aIdx
		}
		return a.bIdx < b.bIdx
	})
	return sites
}

// repairSiteActions enumerates the candidate edits for one site, in
// deterministic order: widening each existing fence inside the segment
// (cheapest — no new instruction), then inserting at each program-order
// position in (a, b], each over the scope ladder from the site's required
// scope up to membar.sys.
func repairSiteActions(g *graph, s repairSite) []RepairAction {
	var out []RepairAction
	for _, f := range g.threads[s.thread] {
		if f.kind != axiom.KFence || f.index <= s.aIdx || f.index >= s.bIdx {
			continue
		}
		lo := s.required
		if f.scope+1 > lo {
			lo = f.scope + 1
		}
		for sc := lo; sc <= ptx.ScopeSys; sc++ {
			out = append(out, RepairAction{
				Kind: "strengthen", Thread: s.thread, Index: f.instr,
				Scope: sc.String(), OldScope: f.scope.String(),
			})
		}
	}
	for pos := s.aInstr + 1; pos <= s.bInstr; pos++ {
		for sc := s.required; sc <= ptx.ScopeSys; sc++ {
			out = append(out, RepairAction{Kind: "insert", Thread: s.thread, Index: pos, Scope: sc.String()})
		}
	}
	return out
}

// repairCandidates builds the ranked candidate sets: the cross product of
// one edit per site (capped at maxGen combinations), deduplicated, each
// scored statically, and sorted by (segments covered descending, fences
// inserted, total scope width, position) — so the judge sees the most
// promising, cheapest, earliest candidates first.
func repairCandidates(g *graph, sites []repairSite, maxGen int) [][]RepairAction {
	lists := make([][]RepairAction, len(sites))
	for i, s := range sites {
		lists[i] = repairSiteActions(g, s)
		if len(lists[i]) == 0 {
			return nil // cannot happen: every site has an insertion position
		}
	}
	type scored struct {
		actions []RepairAction
		score   int // critical segments statically covered after mutation
		inserts int
		width   int
		key     string
	}
	var combos []scored
	seen := make(map[string]bool)
	idx := make([]int, len(lists))
	for n := 0; n < maxGen; n++ {
		combo := make([]RepairAction, len(lists))
		for i, j := range idx {
			combo[i] = lists[i][j]
		}
		actions := canonActions(combo)
		key := actionsKey(actions)
		if !seen[key] {
			seen[key] = true
			sc := scored{actions: actions, key: key}
			for _, a := range actions {
				w, err := scopeFromName(a.Scope)
				if err == nil {
					sc.width += int(w)
				}
				if a.Kind == "insert" {
					sc.inserts++
				}
			}
			sc.score = repairStaticScore(g, actions, sites)
			combos = append(combos, sc)
		}
		k := 0
		for ; k < len(idx); k++ {
			idx[k]++
			if idx[k] < len(lists[k]) {
				break
			}
			idx[k] = 0
		}
		if k == len(idx) {
			break
		}
	}
	sort.Slice(combos, func(i, j int) bool {
		a, b := combos[i], combos[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.inserts != b.inserts {
			return a.inserts < b.inserts
		}
		if a.width != b.width {
			return a.width < b.width
		}
		return a.key < b.key
	})
	out := make([][]RepairAction, len(combos))
	for i, c := range combos {
		out[i] = c.actions
	}
	return out
}

// repairStaticScore counts how many of the critical segments the edits
// order, via the same covered check the prefilter's forced-cycle argument
// uses, under a variant demanding each site's required fence scope. A
// fence edit changes no event but fences, so the edits are read against
// g's own events instead of a mutant's.
func repairStaticScore(g *graph, actions []RepairAction, sites []repairSite) int {
	score := 0
	for _, s := range sites {
		evs := g.threads[s.thread]
		a := eventAtInstr(evs, s.aInstr, true)
		b := eventAtInstr(evs, s.bInstr, false)
		v := covVariant{minFence: s.required, extRF: true}
		if g.covered(a, b, v) || fencedByEdits(evs, actions, a, b, s.required) {
			score++
		}
	}
	return score
}

// fencedByEdits reports whether the edits put a fence of at least scope sc
// on every path strictly between a and b: one inserted between their
// instructions, or an unconditional fence between them strengthened.
func fencedByEdits(evs []*event, actions []RepairAction, a, b *event, sc ptx.Scope) bool {
	for _, act := range actions {
		scope, err := scopeFromName(act.Scope)
		if act.Thread != a.thread || err != nil || scope < sc {
			continue
		}
		switch act.Kind {
		case "insert":
			if a.instr < act.Index && act.Index <= b.instr {
				return true
			}
		case "strengthen":
			f := eventAtInstr(evs, act.Index, false)
			if f != nil && !f.cond && a.index < f.index && f.index < b.index {
				return true
			}
		}
	}
	return false
}

// eventAtInstr finds the event of one instruction; last selects the final
// event when an RMW contributes both a read and a write (the segment
// start wants the last, the end wants the first, so the fence check stays
// strictly between the accesses).
func eventAtInstr(evs []*event, instr int, last bool) *event {
	var found *event
	for _, ev := range evs {
		if ev.instr != instr {
			continue
		}
		if found == nil || last {
			found = ev
		}
		if !last {
			break
		}
	}
	return found
}

// minimizeRepair greedily drops edits whose removal keeps the behaviour
// forbidden, recording each oracle probe in the ledger. Because a fence
// edit only ever adds ordering, an edit droppable from a superset stays
// droppable from any subset, so one greedy pass yields a 1-minimal set:
// removing any single surviving edit makes the behaviour observable again.
func minimizeRepair(t *litmus.Test, actions []RepairAction, observable RepairOracle, res *RepairResult) ([]RepairAction, error) {
	cur := actions
	for i := 0; i < len(cur); {
		trial := make([]RepairAction, 0, len(cur)-1)
		trial = append(trial, cur[:i]...)
		trial = append(trial, cur[i+1:]...)
		if len(trial) == 0 {
			// The empty repair is the original test, observable by
			// precondition; no oracle call needed.
			i++
			continue
		}
		mut, err := ApplyRepair(t, trial)
		if err != nil {
			return nil, err
		}
		obs, err := observable(mut)
		if err != nil {
			return nil, fmt.Errorf("analysis: repair oracle on %s: %w", mut.Name, err)
		}
		if obs {
			res.Attempts = append(res.Attempts, RepairAttempt{Actions: trial, Outcome: "still-observable"})
			i++
		} else {
			res.Attempts = append(res.Attempts, RepairAttempt{Actions: trial, Outcome: "verified"})
			cur = trial
		}
	}
	return cur, nil
}

// canonActions sorts a copy of the actions by (thread, index, kind, scope)
// and drops exact duplicates — the canonical form used for application,
// dedup and the cost tiebreak.
func canonActions(actions []RepairAction) []RepairAction {
	acts := make([]RepairAction, len(actions))
	copy(acts, actions)
	sort.Slice(acts, func(i, j int) bool {
		a, b := acts[i], acts[j]
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Scope < b.Scope
	})
	out := acts[:0]
	for i, a := range acts {
		if i == 0 || a != acts[i-1] {
			out = append(out, a)
		}
	}
	return out
}

// actionsKey renders a canonical action set as a stable dedup/sort key.
func actionsKey(actions []RepairAction) string {
	parts := make([]string, len(actions))
	for i, a := range actions {
		parts[i] = a.String()
	}
	return strings.Join(parts, "; ")
}

// scopeFromName parses a PTX scope suffix ("cta", "gl", "sys").
func scopeFromName(name string) (ptx.Scope, error) {
	switch name {
	case "cta":
		return ptx.ScopeCTA, nil
	case "gl":
		return ptx.ScopeGL, nil
	case "sys":
		return ptx.ScopeSys, nil
	}
	return ptx.ScopeNone, fmt.Errorf("analysis: unknown fence scope %q", name)
}
