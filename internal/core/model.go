// Package core implements the paper's primary formal contribution (Sec. 5):
// the axiomatic model of Nvidia PTX — SPARC RMO stratified per GPU scope —
// together with a herd-style simulator that decides whether a litmus test's
// final condition is allowed.
//
// The model is the .cat sources of Figs. 15 and 16, compiled by package
// cat. The tests cross-check it against a native Go transcription of the
// same figures (native_test.go).
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/cat"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// RMOSource is the .cat transcription of SPARC RMO of Fig. 15, using
// load-load-hazard-permitting SC-per-location and the no-thin-air check.
// The generic rmo relation is left parametric in the fence relation.
const RMOSource = `RMO
(* Fig. 15: RMO .cat file *)
let com = rf | co | fr
let po-loc-llh =
  WW(po-loc) | WR(po-loc) | RW(po-loc)
acyclic (po-loc-llh | com) as sc-per-loc-llh
let dp = addr | data | ctrl
acyclic (dp | rf) as no-thin-air
let rmo(fence) = dp | fence | rfe | co | fr
`

// PTXScopesSource is Fig. 16: RMO per scope. It extends RMOSource with
// per-scope fence relations and one acyclicity constraint per scope.
const PTXScopesSource = `
(* Fig. 16: RMO per scope *)
let sys-fence = membar.sys
let gl-fence = membar.gl | sys-fence
let cta-fence = membar.cta | gl-fence
let rmo-cta = rmo(cta-fence) & cta
let rmo-gl = rmo(gl-fence) & gl
let rmo-sys = rmo(sys-fence) & sys
acyclic rmo-cta as cta-constraint
acyclic rmo-gl as gl-constraint
acyclic rmo-sys as sys-constraint
`

// SCSource is Lamport sequential consistency, the strongest baseline: all
// communications must be consistent with program order.
const SCSource = `SC
let com = rf | co | fr
acyclic (po | com) as sc
`

// SorensenOpSource approximates the operational model of Sorensen et al.
// discussed in Sec. 6: like the PTX model, but a membar.cta orders accesses
// globally rather than only within its CTA (no "& cta" restriction). The
// paper shows this model is unsound: lb+membar.ctas is forbidden by it yet
// observed on GTX Titan and GTX 660.
const SorensenOpSource = `SorensenOperational
let com = rf | co | fr
let po-loc-llh =
  WW(po-loc) | WR(po-loc) | RW(po-loc)
acyclic (po-loc-llh | com) as sc-per-loc-llh
let dp = addr | data | ctrl
acyclic (dp | rf) as no-thin-air
let rmo(fence) = dp | fence | rfe | co | fr
let sys-fence = membar.sys
let gl-fence = membar.gl | sys-fence
let cta-fence = membar.cta | gl-fence
acyclic rmo(cta-fence) as cta-constraint
acyclic rmo(gl-fence) & gl as gl-constraint
acyclic rmo(sys-fence) & sys as sys-constraint
`

// Model is a memory-consistency model: a parsed .cat model lowered to a
// compiled slot program.
type Model struct {
	Name   string
	Source string
	prog   *cat.Program
	fp     string // content fingerprint of Source, fixed at compile time
	// policy is the static-prefilter policy the model's constraints
	// warrant (see static.go); PolicyNone for user-compiled sources.
	policy analysis.Policy
}

// compile panics on malformed embedded sources (a programming error): both
// the parse and the lowering to the slot program happen here, once per
// Model, so every verdict afterwards runs the compiled path.
func compile(name, src string) *Model {
	sum := sha256.Sum256([]byte(src))
	return &Model{Name: name, Source: src, prog: cat.MustParse(src).MustCompile(), fp: hex.EncodeToString(sum[:])}
}

// Fingerprint returns a content-addressed identity for the model: a hex
// SHA-256 of its .cat source, fixed at compile time. Two Model values built
// from the same source share a fingerprint even though they are distinct
// pointers, which is what content-addressed verdict caches key on (the name
// alone could collide across different sources).
func (m *Model) Fingerprint() string { return m.fp }

// PTX returns the paper's model of Nvidia GPUs: the concatenation of
// Figs. 15 and 16 (Sec. 5.3).
func PTX() *Model {
	m := compile("PTX", RMOSource+PTXScopesSource)
	m.policy = analysis.PolicyScoped
	return m
}

// RMO returns plain SPARC RMO (Fig. 15) with all fences treated at system
// scope, the CPU baseline the PTX model is derived from.
func RMO() *Model {
	m := compile("RMO", RMOSource+`
let any-fence = membar.cta | membar.gl | membar.sys
acyclic rmo(any-fence) as rmo-constraint
`)
	m.policy = analysis.PolicyFence
	return m
}

// SC returns Lamport sequential consistency.
func SC() *Model {
	m := compile("SC", SCSource)
	m.policy = analysis.PolicySC
	return m
}

// SorensenOp returns the unsound operational-model approximation of Sec. 6.
// Its cta-constraint orders every fence globally (no & cta), so it shares
// RMO's prefilter policy.
func SorensenOp() *Model {
	m := compile("SorensenOperational", SorensenOpSource)
	m.policy = analysis.PolicyFence
	return m
}

// Covers reports whether the test is within the model's documented scope
// (Sec. 5.5): only .cg accesses to global memory; .ca and .volatile
// accesses and shared-memory locations are outside it. Atomic RMWs are
// handled as an extension (their atomicity is enforced structurally by the
// enumerator). The returned string names the first violation.
func Covers(t *litmus.Test) (bool, string) {
	for _, th := range t.Threads {
		for _, inst := range th.Prog {
			switch v := inst.(type) {
			case ptx.Ld:
				if v.CacheOp != ptx.CacheCG {
					return false, fmt.Sprintf("thread %d: load with cache operator %q (model assumes .cg)", th.ID, v.CacheOp)
				}
				if v.Volatile {
					return false, fmt.Sprintf("thread %d: volatile load (not modelled)", th.ID)
				}
			case ptx.St:
				if v.CacheOp != ptx.CacheCG {
					return false, fmt.Sprintf("thread %d: store with cache operator %q (model assumes .cg)", th.ID, v.CacheOp)
				}
				if v.Volatile {
					return false, fmt.Sprintf("thread %d: volatile store (not modelled)", th.ID)
				}
			}
		}
	}
	for loc, sp := range t.MemMap {
		if sp != litmus.Global {
			return false, fmt.Sprintf("location %s in %s memory (model assumes global)", loc, sp)
		}
	}
	return true, ""
}

// Verdict is the outcome of judging a litmus test against a model. All
// counts are weighted by symmetry-class size (axiom.Execution.Weight), so
// they equal the exhaustive enumeration's whatever pruning did.
type Verdict struct {
	Test       *litmus.Test
	Model      string
	Candidates int
	Allowed    int  // candidates the model allows
	Witnesses  int  // allowed candidates whose final state satisfies the condition
	Observable bool // Witnesses > 0: the final condition is allowed by the model
	Witness    *axiom.Execution

	// Visited counts the executions actually evaluated: the canonical
	// representatives the enumerator produced. Candidates - Visited is the
	// work symmetry pruning saved. 0 on verdicts rebuilt from stores that
	// predate pruning (read it through Pruned, which treats that as "none").
	Visited int

	// StaticSkipped marks a verdict decided by the static prefilter
	// without enumeration (see Model.StaticVerdict): Observable is
	// authoritative but all candidate counts are zero. StaticReason is the
	// prefilter's justification.
	StaticSkipped bool
	StaticReason  string
}

// Pruned returns the number of candidate executions skipped as
// symmetry-equivalent to a visited representative: Candidates - Visited,
// or 0 when Visited was not recorded.
func (v *Verdict) Pruned() int {
	if v.Visited <= 0 || v.Visited > v.Candidates {
		return 0
	}
	return v.Candidates - v.Visited
}

// String summarises the verdict in herd style. Statically decided
// verdicts have no candidate counts and say so instead.
func (v *Verdict) String() string {
	state := "Never"
	if v.Observable {
		state = "Sometimes"
	}
	if v.StaticSkipped {
		return fmt.Sprintf("Test %s: %s (static, enumeration skipped) under %s", v.Test.Name, state, v.Model)
	}
	return fmt.Sprintf("Test %s: %s (%d/%d candidates allowed, %d witnesses) under %s",
		v.Test.Name, state, v.Allowed, v.Candidates, v.Witnesses, v.Model)
}

// Judge is JudgeWith with the zero Opts. perfbench/ is its only non-test
// caller, which pins it; other callers use JudgeWith.
func Judge(m *Model, t *litmus.Test) (*Verdict, error) {
	return JudgeWith(context.Background(), m, t, Opts{})
}

// JudgeP is JudgeWith with Opts.Parallelism. perfbench/ is its only
// non-test caller, which pins it; other callers use JudgeWith.
func JudgeP(m *Model, t *litmus.Test, parallelism int) (*Verdict, error) {
	return JudgeWith(context.Background(), m, t, Opts{Parallelism: parallelism})
}

// JudgeCtx is JudgeWith with Opts.Parallelism. perfbench/ is its only
// non-test caller, which pins it; other callers use JudgeWith.
func JudgeCtx(ctx context.Context, m *Model, t *litmus.Test, parallelism int) (*Verdict, error) {
	return JudgeWith(ctx, m, t, Opts{Parallelism: parallelism})
}

// ForEachVerdictCtx is JudgeWith with Opts.Visit, returning the weighted
// number of candidates; parallelism does not change the run. perfbench/
// is its only non-test caller, which pins it; other callers use JudgeWith.
func (m *Model) ForEachVerdictCtx(ctx context.Context, t *litmus.Test, parallelism int, visit func(i int, x *axiom.Execution, allowed bool) error) (int, error) {
	return candidates(JudgeWith(ctx, m, t, Opts{Parallelism: parallelism, Visit: visit}))
}

// candidates returns v's weighted candidate count, or err.
func candidates(v *Verdict, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return v.Candidates, nil
}
