// Package axiom implements the axiomatic execution framework of Sec. 5.1 of
// the paper: memory events, the relations over them (program order,
// dependencies, scope relations, read-from, coherence, from-read), a small
// relation algebra with acyclicity checks, and the enumeration of candidate
// executions of a litmus test.
//
// A candidate execution is a graph of events with relations; memory-model
// constraints (package core) partition candidates into allowed and
// forbidden executions.
package axiom

import (
	"fmt"

	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// EventID identifies an event within one execution; IDs are dense from 0.
type EventID int

// Kind classifies an event.
type Kind int

// Event kinds: loads give rise to reads, stores to writes (Sec. 5.1.1);
// membar instructions give rise to fence events.
const (
	KRead Kind = iota
	KWrite
	KFence
)

// String returns "R", "W" or "F".
func (k Kind) String() string {
	switch k {
	case KRead:
		return "R"
	case KWrite:
		return "W"
	case KFence:
		return "F"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is a memory event of a candidate execution.
type Event struct {
	ID       EventID
	Thread   int // issuing thread (litmus thread index)
	PoIdx    int // position in the thread's event sequence
	Kind     Kind
	Loc      ptx.Sym     // accessed location (empty for fences)
	Val      int64       // value read or written
	CacheOp  ptx.CacheOp // cache operator of the access
	Volatile bool        // .volatile access
	Atomic   bool        // part of an atomic RMW
	Scope    ptx.Scope   // fence scope (fences only)
	Instr    int         // index of the originating instruction in the thread program
}

// String renders the event in the style of the paper's execution graphs,
// e.g. "a: W.cg x=1".
func (e *Event) String() string {
	name := func(id EventID) string {
		if id < 26 {
			return string(rune('a' + id))
		}
		return fmt.Sprintf("e%d", id)
	}
	switch e.Kind {
	case KFence:
		return fmt.Sprintf("%s: F.membar.%s", name(e.ID), e.Scope)
	default:
		suffix := ""
		if e.CacheOp != ptx.CacheDefault {
			suffix = "." + e.CacheOp.String()
		}
		if e.Volatile {
			suffix += ".vol"
		}
		atomic := ""
		if e.Atomic {
			atomic = "*"
		}
		return fmt.Sprintf("%s: %s%s%s %s=%d", name(e.ID), e.Kind, suffix, atomic, e.Loc, e.Val)
	}
}

// IsMem reports whether the event is a memory access (read or write).
func (e *Event) IsMem() bool { return e.Kind == KRead || e.Kind == KWrite }
