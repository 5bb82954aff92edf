// Package analysis is a static analyzer for litmus tests that runs before
// any candidate execution is produced. It builds a static event graph over
// the parsed test — program order, must-hold address/data/control
// dependencies, scoped fences, and the potential communication edges
// between same-location accesses of different threads — and derives two
// products from it. An event names its location by slot, its index in the
// enumeration's Slots().Locs(), as axiom's events do; a name is read back
// only to print it or to look up the test's initial value. Each thread's
// order closures (must-dependency chains, and same-location chains without
// read-read links) are computed once per graph, on first use, and every
// coverage check reads them. The two products:
//
//   - Diagnostics (Analyze): static races, Shasha–Snir-style critical
//     cycles whose communication is not ordered by a fence of the required
//     scope (the paper's §6 broken idioms, e.g. membar.cta guarding
//     inter-CTA message passing), plus idiom lint — unused registers, dead
//     writes, redundant fences, and unsatisfiable final conditions.
//
//   - A sound verdict prefilter (Prefilter): a three-valued
//     StaticVerdict{Forbidden,Allowed,Unknown} for a test under a model
//     family (Policy). Forbidden and Allowed are only ever reported when
//     the full rf×co enumeration provably agrees, so callers (the repair
//     oracle, campaign.Memo, the gpulitmusd service) skip enumeration
//     entirely on a decided verdict. Unknown is always safe: it merely
//     means "enumerate".
//
// Soundness rests on two arguments, each checked differentially against
// the full judge over the paper corpus and a randomized corpus:
//
//  1. Value analysis. The static events and final states are read off
//     the judge's own symbolic thread paths (axiom.Enumeration.Paths),
//     which run every load over its location's read domain. Every
//     candidate execution runs one path per thread, so the paths
//     over-approximate every candidate; a test with a branch (whose paths
//     unroll its loops) and a test the enumerator cannot prepare get no
//     claim. A condition false over the paths' final states has no
//     witness in any candidate (Forbidden); a condition true on every
//     path holds in every candidate, and since every builtin model's
//     constraints are acyclicity requirements over subrelations of
//     po ∪ com, at least one candidate (any sequentially consistent
//     interleaving) is allowed, so the condition is observable (Allowed).
//
//  2. Forced-cycle analysis. When the condition is a conjunction that
//     pins a read to a value only one static write can produce (or to the
//     initial value no write produces), the communication edges of every
//     witnessing execution are forced. If those forced edges close a cycle
//     whose program-order segments are each covered by a must-hold
//     dependency or an adequately scoped fence, the cycle lies inside a
//     relation the model requires to be acyclic, so no witnessing
//     execution is allowed (Forbidden).
package analysis

import (
	"fmt"
	"sort"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// StaticVerdict is the prefilter's three-valued answer.
type StaticVerdict int

// The three verdicts. Unknown is the safe default: the enumerator must
// decide. Forbidden and Allowed assert the enumerated verdict
// (Observable false / true respectively) without enumerating.
const (
	Unknown StaticVerdict = iota
	Forbidden
	Allowed
)

// String renders the verdict in the lower-case form used on the wire.
func (v StaticVerdict) String() string {
	switch v {
	case Forbidden:
		return "forbidden"
	case Allowed:
		return "allowed"
	default:
		return "unknown"
	}
}

// Policy identifies the family of model constraints the prefilter may
// assume when looking for forced cycles. Using a weaker policy than the
// model warrants is always sound (fewer Forbidden claims); using a
// stronger one is not.
type Policy int

const (
	// PolicyNone assumes nothing about the model: only value-analysis
	// Forbidden (condition unsatisfiable over any candidate execution) is
	// reported. The right policy for user-supplied .cat models.
	PolicyNone Policy = iota
	// PolicySC is Lamport sequential consistency: po ∪ com acyclic.
	PolicySC
	// PolicyFence is RMO-like models whose fence constraint orders every
	// fence globally regardless of scope (plain RMO, and the Sorensen
	// operational approximation whose cta-constraint lacks the & cta
	// restriction).
	PolicyFence
	// PolicyScoped is the paper's PTX model: fences order only at their
	// scope (rmo-cta & cta, rmo-gl & gl).
	PolicyScoped
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicySC:
		return "sc"
	case PolicyFence:
		return "fence"
	case PolicyScoped:
		return "scoped"
	default:
		return "none"
	}
}

// Result is a prefilter verdict plus its deterministic justification.
type Result struct {
	Verdict StaticVerdict `json:"verdict"`
	Reason  string        `json:"reason,omitempty"`
}

// Prefilter statically judges en's test under a model family. A Forbidden
// or Allowed result is sound: the full enumeration's verdict has,
// respectively, Witnesses == 0 (Observable false) or Witnesses > 0
// (Observable true). Unknown means the analysis cannot decide and the
// caller must enumerate; it is always safe. A test with a branch is
// always Unknown: its paths unroll loops, so one instruction may run many
// times on a path.
func Prefilter(en *axiom.Enumeration, p Policy) Result {
	t := en.Test()
	if branches(t) {
		return Result{}
	}
	return buildGraph(t, en, true).prefilter(p)
}

// prefilter is Prefilter on a built graph.
func (g *graph) prefilter(p Policy) Result {
	// Value analysis first: it needs no model assumptions for Forbidden.
	switch g.evalCond(g.test.Exists) {
	case no:
		return Result{Verdict: Forbidden, Reason: "condition unsatisfiable over the static value domains"}
	case yes:
		// Allowed additionally needs the existence of one allowed candidate,
		// which the SC-interleaving argument gives only for the builtin
		// acyclicity-of-po∪com model families.
		if p != PolicyNone {
			return Result{Verdict: Allowed, Reason: "condition holds in every candidate execution"}
		}
	}

	if p == PolicyNone {
		return Result{}
	}
	if reason, ok := g.forcedCycle(p); ok {
		return Result{Verdict: Forbidden, Reason: reason}
	}
	return Result{}
}

// Diagnostic is one structured finding of the analyzer. Thread and Instr
// locate the primary instruction (-1 when the finding is test-wide); Loc
// names the memory location involved, when there is one.
//
// Event is the index of the primary event in its thread's static event
// list (-1 when the finding has no event, e.g. an unused register), and
// the Rel* triple anchors the secondary site a two-sided finding refers
// to — the other access of a race, the far endpoint of an unordered
// critical-cycle segment, the adjacent fence of a redundant-fence pair —
// or is (-1,-1,-1) when there is none. The anchors exist for machine
// consumers (gpulint -json, the -fix engine); the human rendering
// (String) deliberately ignores them. All fields are comparable values:
// diagnose() dedupes findings with a map keyed on the whole struct.
type Diagnostic struct {
	Code      string `json:"code"`
	Severity  string `json:"severity"` // "info" or "warning"
	Thread    int    `json:"thread"`
	Instr     int    `json:"instr"`
	Event     int    `json:"event"` // event index in thread, -1 when none
	RelThread int    `json:"rel_thread"`
	RelInstr  int    `json:"rel_instr"`
	RelEvent  int    `json:"rel_event"`
	Loc       string `json:"loc,omitempty"`
	Message   string `json:"message"`
}

// noAnchor marks an absent event or secondary-site anchor.
const noAnchor = -1

// Diagnostic codes emitted by Analyze.
const (
	CodeRace          = "race"
	CodeCriticalCycle = "critical-cycle"
	CodeScopeMismatch = "scope-mismatch"
	CodeUnusedReg     = "unused-register"
	CodeDeadWrite     = "dead-write"
	CodeRedundantBar  = "redundant-fence"
	CodeUnsatCond     = "unsat-condition"
)

// Report is the full analyzer output for one test: sorted diagnostics and
// the prefilter verdict under each builtin model.
type Report struct {
	Test        string       `json:"test"`
	Fingerprint string       `json:"fingerprint"`
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Static maps the builtin model keys (ptx, sc, rmo, op) to the
	// prefilter verdict string for this test.
	Static map[string]string `json:"static"`
}

// builtinPolicies maps the service's model keys to their prefilter
// policies. rmo and op share PolicyFence: both order every fence globally.
var builtinPolicies = map[string]Policy{
	"ptx": PolicyScoped,
	"sc":  PolicySC,
	"rmo": PolicyFence,
	"op":  PolicyFence,
}

// Analyze runs every diagnostic pass and the prefilter for each builtin
// model over one graph of the test, returning a deterministic report:
// diagnostics are sorted by (severity, code, thread, instr, loc, message)
// with warnings first.
func Analyze(t *litmus.Test) *Report {
	g := graphOf(t)
	r := &Report{
		Test:        t.Name,
		Fingerprint: t.Fingerprint(),
		Diagnostics: g.diagnose(),
		Static:      make(map[string]string, len(builtinPolicies)),
	}
	for key, p := range builtinPolicies {
		r.Static[key] = g.prefilter(p).Verdict.String()
	}
	sortDiagnostics(r.Diagnostics)
	return r
}

// sortDiagnostics orders findings deterministically: warnings before
// infos, then by code, thread, instruction, location and message.
func sortDiagnostics(ds []Diagnostic) {
	rank := func(sev string) int {
		if sev == "warning" {
			return 0
		}
		return 1
	}
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if rank(a.Severity) != rank(b.Severity) {
			return rank(a.Severity) < rank(b.Severity)
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		if a.Loc != b.Loc {
			return a.Loc < b.Loc
		}
		return a.Message < b.Message
	})
}

// String renders a diagnostic as one line of gpulint text output.
func (d Diagnostic) String() string {
	at := ""
	if d.Thread >= 0 {
		at = fmt.Sprintf(" T%d", d.Thread)
		if d.Instr >= 0 {
			at += fmt.Sprintf("#%d", d.Instr)
		}
	}
	return fmt.Sprintf("%s %s%s: %s", d.Severity, d.Code, at, d.Message)
}
