// Package cat implements the fragment of the .cat model-description
// language used by the paper (Sec. 5.2, Figs. 15-16): let bindings
// (including parameterised ones like "let rmo(fence) = ..."), union "|",
// intersection "&", difference "\", application of relation-valued
// functions and of the built-in event-kind filters WW/WR/RW/RR, and the
// checks "acyclic e as name", "irreflexive e as name" and "empty e as
// name".
//
// Compile lowers a parsed model to a slot program, resolving every free
// name against the base vocabulary of Sec. 5.1.1 (po, rf, co, fr, the
// fence and scope relations, ...) and rejecting any model that could fail
// to evaluate. The program is then evaluated directly against candidate
// executions (Program.RunExec, RunExecVerdict), yielding one result per
// check. A tree-walking interpreter over an environment of relations is
// kept in the package tests as the reference the compiled path is checked
// against.
package cat

import (
	"fmt"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/axiom"
)

// CheckKind is the kind of constraint a model imposes.
type CheckKind int

// Check kinds.
const (
	Acyclic CheckKind = iota
	Irreflexive
	Empty
)

// String returns the .cat keyword.
func (k CheckKind) String() string {
	switch k {
	case Acyclic:
		return "acyclic"
	case Irreflexive:
		return "irreflexive"
	case Empty:
		return "empty"
	default:
		return fmt.Sprintf("CheckKind(%d)", int(k))
	}
}

// holds reports whether relation r satisfies a check of kind k.
func (k CheckKind) holds(r axiom.Rel) bool {
	switch k {
	case Acyclic:
		return r.Acyclic()
	case Irreflexive:
		return r.Irreflexive()
	case Empty:
		return r.IsEmpty()
	}
	return false
}

// CheckResult is the outcome of one model check on one execution.
type CheckResult struct {
	Name string
	Kind CheckKind
	OK   bool
	Rel  axiom.Rel // the evaluated relation (for diagnostics)
}

// String renders "name: ok" or "name: violated".
func (r CheckResult) String() string {
	state := "ok"
	if !r.OK {
		state = "violated"
	}
	return fmt.Sprintf("%s: %s", r.Name, state)
}

// Results is the list of check outcomes for one execution.
type Results []CheckResult

// Allowed reports whether every check passed: the execution is allowed by
// the model.
func (rs Results) Allowed() bool {
	for _, r := range rs {
		if !r.OK {
			return false
		}
	}
	return true
}

// Failed returns the names of violated checks.
func (rs Results) Failed() []string {
	var names []string
	for _, r := range rs {
		if !r.OK {
			names = append(names, r.Name)
		}
	}
	return names
}

// String joins the individual results.
func (rs Results) String() string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.String()
	}
	return strings.Join(parts, ", ")
}
