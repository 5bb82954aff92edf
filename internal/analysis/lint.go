package analysis

import (
	"fmt"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// diagnose runs every lint pass over the static event graph and returns
// the (unsorted, deduplicated) findings. The dedupe key is the rendered
// fields only — two findings that differ just in their machine anchors
// (e.g. the read and write event of one RMW instruction) collapse to the
// first discovery, keeping the human output identical to what it was
// before anchors existed.
func (g *graph) diagnose() []Diagnostic {
	type diagKey struct {
		code, severity string
		thread, instr  int
		loc, message   string
	}
	var ds []Diagnostic
	seen := make(map[diagKey]bool)
	add := func(d Diagnostic) {
		k := diagKey{d.Code, d.Severity, d.Thread, d.Instr, d.Loc, d.Message}
		if !seen[k] {
			seen[k] = true
			ds = append(ds, d)
		}
	}
	g.lintRaces(add)
	g.lintCycles(add)
	g.lintUnusedRegs(add)
	g.lintDeadWrites(add)
	g.lintFences(add)
	g.lintCond(add)
	return ds
}

// accessEvents returns the memory access events (reads and writes with a
// resolved location) in deterministic order.
func (g *graph) accessEvents() []*event {
	var out []*event
	for _, evs := range g.threads {
		for _, ev := range evs {
			if ev.kind != axiom.KFence && ev.loc != "" {
				out = append(out, ev)
			}
		}
	}
	return out
}

// lintRaces flags pairs of same-location accesses from different threads
// where at least one side writes and not both are atomic — the paper's
// definition of potentially racy communication. Informational: in litmus
// tests the race usually is the point.
func (g *graph) lintRaces(add func(Diagnostic)) {
	acc := g.accessEvents()
	for i, a := range acc {
		for _, b := range acc[i+1:] {
			if a.thread == b.thread || a.loc != b.loc {
				continue
			}
			if a.kind != axiom.KWrite && b.kind != axiom.KWrite {
				continue
			}
			if a.atomic && b.atomic {
				continue
			}
			lo, hi := a, b
			if hi.thread < lo.thread {
				lo, hi = hi, lo
			}
			add(Diagnostic{
				Code: CodeRace, Severity: "info", Thread: lo.thread, Instr: lo.instr, Loc: string(lo.loc),
				Event: lo.index, RelThread: hi.thread, RelInstr: hi.instr, RelEvent: hi.index,
				Message: fmt.Sprintf("unsynchronized %s of %s races with T%d#%d %s", verb(lo), lo.loc, hi.thread, hi.instr, verb(hi)),
			})
		}
	}
}

func verb(e *event) string {
	if e.kind == axiom.KWrite {
		return "write"
	}
	return "read"
}

// commCand is a potential communication edge for critical-cycle lint:
// any cross-thread same-location pair with at least one write.
type commCand struct{ from, to *event }

// criticalSegment is one program-order segment on a Shasha–Snir-style
// critical cycle that no must-dependency or adequately scoped fence
// orders: the finding behind the critical-cycle and scope-mismatch
// diagnostics, and the repair engine's unit of work (repair.go inserts or
// strengthens fences on exactly these segments).
type criticalSegment struct {
	in, out  commCand  // comm edges entering a and leaving b
	a, b     *event    // segment endpoints, same thread, a.index < b.index
	best     ptx.Scope // widest fence strictly inside (ScopeNone: none)
	required ptx.Scope // scope the widest thread pair on the cycle needs
}

// criticalSegments looks for Shasha–Snir-style critical cycles: cycles of
// potential communication edges whose program-order segments are not all
// ordered by a dependency or an adequately scoped fence. Every unordered
// or under-fenced segment is returned in deterministic discovery order
// (duplicates across overlapping cycles included); a segment with no
// fence at all has best == ScopeNone, one fenced too narrowly has
// ScopeNone < best < required.
func (g *graph) criticalSegments() []criticalSegment {
	acc := g.accessEvents()
	var cands []commCand
	for _, a := range acc {
		for _, b := range acc {
			if a.thread == b.thread || a.loc != b.loc {
				continue
			}
			// rf: W→R, fr: R→W, co: W→W (both orientations arise since we
			// scan ordered pairs).
			if a.kind == axiom.KWrite || b.kind == axiom.KWrite {
				cands = append(cands, commCand{from: a, to: b})
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}

	// Dependency coverage (any policy's dp is fine for lint purposes).
	reach := make([][][]bool, len(g.threads))
	for tid, evs := range g.threads {
		reach[tid] = g.segCoverage(evs, covVariant{})
	}

	// DFS over communication edges, visiting each thread at most once, so
	// cycles alternate one po segment per thread with comm edges.
	var segs []criticalSegment
	var path []int
	emit := func(cycle []int) {
		// Judge the cycle's po segments. required is the widest scope any
		// thread pair on the cycle needs.
		required := ptx.ScopeCTA
		for _, ci := range cycle {
			if !g.test.Scope.SameCTA(cands[ci].from.thread, cands[ci].to.thread) {
				required = ptx.ScopeGL
			}
		}
		for i, ci := range cycle {
			in := cands[ci]
			out := cands[cycle[(i+1)%len(cycle)]]
			a, b := in.to, out.from // the po segment a..b inside one thread
			if a.instr == b.instr {
				continue // one instruction: no fence can go inside it
			}
			if reach[a.thread][a.index][b.index] {
				continue // ordered by a must-dependency
			}
			best := ptx.ScopeNone
			for _, f := range g.threads[a.thread] {
				if f.kind == axiom.KFence && f.index > a.index && f.index < b.index && f.scope > best {
					best = f.scope
				}
			}
			if best < required {
				segs = append(segs, criticalSegment{in: in, out: out, a: a, b: b, best: best, required: required})
			}
		}
	}
	var dfs func(cur int, threadsUsed map[int]bool)
	dfs = func(cur int, threadsUsed map[int]bool) {
		last := cands[cur]
		start := cands[path[0]]
		for next, c := range cands {
			if c.from.thread != last.to.thread || c.from.index < last.to.index {
				continue
			}
			if c.to.thread == start.from.thread && c.to.index <= start.from.index {
				emit(append(append([]int(nil), path...), next))
				continue
			}
			if threadsUsed[c.to.thread] {
				continue
			}
			threadsUsed[c.to.thread] = true
			path = append(path, next)
			dfs(next, threadsUsed)
			path = path[:len(path)-1]
			delete(threadsUsed, c.to.thread)
		}
	}
	for i, c := range cands {
		path = []int{i}
		dfs(i, map[int]bool{c.from.thread: true, c.to.thread: true})
	}
	return segs
}

// lintCycles renders the critical segments as diagnostics: a segment with
// no fence at all is flagged critical-cycle; one ordered only by fences
// narrower than the widest thread pair requires is flagged scope-mismatch
// (the paper's broken idioms, e.g. membar.cta guarding inter-CTA message
// passing).
func (g *graph) lintCycles(add func(Diagnostic)) {
	for _, s := range g.criticalSegments() {
		a, b := s.a, s.b
		if s.best == ptx.ScopeNone {
			add(Diagnostic{
				Code: CodeCriticalCycle, Severity: "warning", Thread: a.thread, Instr: a.instr, Loc: string(a.loc),
				Event: a.index, RelThread: b.thread, RelInstr: b.instr, RelEvent: b.index,
				Message: fmt.Sprintf("critical cycle through %s and %s: no fence or dependency orders T%d#%d before T%d#%d", s.in.from.loc, s.out.to.loc, a.thread, a.instr, b.thread, b.instr),
			})
		} else {
			add(Diagnostic{
				Code: CodeScopeMismatch, Severity: "warning", Thread: a.thread, Instr: a.instr, Loc: string(a.loc),
				Event: a.index, RelThread: b.thread, RelInstr: b.instr, RelEvent: b.index,
				Message: fmt.Sprintf("membar.%s between T%d#%d and T%d#%d is too narrow for inter-CTA communication on %s (needs membar.gl or wider)", scopeName(s.best), a.thread, a.instr, b.thread, b.instr, s.in.from.loc),
			})
		}
	}
}

func scopeName(s ptx.Scope) string {
	switch s {
	case ptx.ScopeCTA:
		return "cta"
	case ptx.ScopeGL:
		return "gl"
	case ptx.ScopeSys:
		return "sys"
	}
	return "none"
}

// lintUnusedRegs flags declared registers no instruction reads or writes
// and no condition atom inspects: those without a slot in the resolution
// of the test's programs and condition alone.
func (g *graph) lintUnusedRegs(add func(Diagnostic)) {
	used := litmus.NewSlots(&litmus.Test{Threads: g.test.Threads, Exists: g.test.Exists})
	for _, d := range g.test.Decls {
		if d.Thread < 0 || d.Thread >= len(g.test.Threads) || used.Reg(d.Thread, d.Reg) >= 0 {
			continue
		}
		add(Diagnostic{
			Code: CodeUnusedReg, Severity: "info", Thread: d.Thread, Instr: -1,
			Event: noAnchor, RelThread: noAnchor, RelInstr: noAnchor, RelEvent: noAnchor,
			Message: fmt.Sprintf("register %s is declared but never used", d.Reg),
		})
	}
}

// lintDeadWrites flags locations that are written but never read by any
// thread nor inspected by the final condition.
func (g *graph) lintDeadWrites(add func(Diagnostic)) {
	readLocs := make(map[ptx.Sym]bool)
	for _, evs := range g.threads {
		for _, ev := range evs {
			if ev.kind == axiom.KRead {
				readLocs[ev.loc] = true
			}
		}
	}
	for _, a := range litmus.CondAtoms(g.test.Exists) {
		if me, ok := a.(litmus.MemEq); ok {
			readLocs[me.Loc] = true
		}
	}
	flagged := make(map[ptx.Sym]bool)
	for _, evs := range g.threads {
		for _, ev := range evs {
			if ev.kind != axiom.KWrite || readLocs[ev.loc] || flagged[ev.loc] {
				continue
			}
			flagged[ev.loc] = true
			add(Diagnostic{
				Code: CodeDeadWrite, Severity: "info", Thread: ev.thread, Instr: ev.instr, Loc: string(ev.loc),
				Event: ev.index, RelThread: noAnchor, RelInstr: noAnchor, RelEvent: noAnchor,
				Message: fmt.Sprintf("%s is written but never read, and the condition ignores it", ev.loc),
			})
		}
	}
}

// lintFences flags fences that cannot order anything: no memory access
// before them, none after them, or another fence adjacent with no access
// in between.
func (g *graph) lintFences(add func(Diagnostic)) {
	for tid, evs := range g.threads {
		for i, f := range evs {
			if f.kind != axiom.KFence {
				continue
			}
			accBefore, accAfter := false, false
			prevFence := -1
			for j := 0; j < i; j++ {
				if evs[j].kind == axiom.KFence {
					prevFence = j
				} else {
					accBefore = true
				}
			}
			for j := i + 1; j < len(evs); j++ {
				if evs[j].kind != axiom.KFence {
					accAfter = true
				}
			}
			switch {
			case prevFence >= 0 && !hasAccessBetween(evs, prevFence, i):
				add(Diagnostic{
					Code: CodeRedundantBar, Severity: "info", Thread: tid, Instr: f.instr,
					Event: f.index, RelThread: tid, RelInstr: evs[prevFence].instr, RelEvent: evs[prevFence].index,
					Message: fmt.Sprintf("fence is adjacent to the membar at T%d#%d with no access between them", tid, evs[prevFence].instr),
				})
			case !accBefore:
				add(Diagnostic{
					Code: CodeRedundantBar, Severity: "info", Thread: tid, Instr: f.instr,
					Event: f.index, RelThread: noAnchor, RelInstr: noAnchor, RelEvent: noAnchor,
					Message: "fence has no memory access before it",
				})
			case !accAfter:
				add(Diagnostic{
					Code: CodeRedundantBar, Severity: "info", Thread: tid, Instr: f.instr,
					Event: f.index, RelThread: noAnchor, RelInstr: noAnchor, RelEvent: noAnchor,
					Message: "fence has no memory access after it",
				})
			}
		}
	}
}

func hasAccessBetween(evs []*event, i, j int) bool {
	for k := i + 1; k < j; k++ {
		if evs[k].kind != axiom.KFence {
			return true
		}
	}
	return false
}

// lintCond flags a final condition the value analysis proves
// unsatisfiable: the test can never report a positive observation.
func (g *graph) lintCond(add func(Diagnostic)) {
	if g.evalCond(g.test.Exists) == no {
		add(Diagnostic{
			Code: CodeUnsatCond, Severity: "warning", Thread: -1, Instr: -1,
			Event: noAnchor, RelThread: noAnchor, RelInstr: noAnchor, RelEvent: noAnchor,
			Message: "final condition is statically unsatisfiable: no execution can witness it",
		})
	}
}
