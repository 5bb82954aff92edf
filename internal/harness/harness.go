// Package harness runs litmus tests many times on the simulated GPUs and
// collects histograms of final states, the experimental method of Sec. 4.2
// of the paper: each test executes thousands of times under incantations
// (stress heuristics, Sec. 4.3) and the number of runs matching the final
// condition is reported per 100k executions.
// A final state has one identity, its test's Layout, which keys, renders,
// reads back and judges it.
package harness

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

// Config parameterises a harness run.
type Config struct {
	Chip        *chip.Profile
	Incant      chip.Incant
	Runs        int   // iterations (the paper uses 100k)
	Seed        int64 // base seed; runs use Seed, Seed+1, ...
	Parallelism int   // worker goroutines (default GOMAXPROCS)
}

// DefaultRuns is the paper's iteration count.
const DefaultRuns = 100000

// Outcome is the result of running one test under one configuration,
// its histogram keyed by the fingerprints of the test's Layout.
type Outcome struct {
	Test      *litmus.Test
	Config    Config
	Histogram map[string]int // final-state fingerprint -> count
	Matches   int            // runs whose final state satisfied the condition
	Runs      int
}

// Run executes the test cfg.Runs times and histograms the final states.
// Iterations are deterministic in cfg.Seed and independent of parallelism.
func Run(t *litmus.Test, cfg Config) (*Outcome, error) {
	return RunCtx(context.Background(), t, cfg)
}

// RunCtx is Run under a context: cancelling ctx aborts the run between
// iterations on every worker and returns ctx.Err() — the gpulitmusd
// service passes request-scoped contexts so an abandoned /v1/run stops
// burning the simulator. For an uncancelled ctx the outcome is exactly
// Run's.
//
// The test is compiled once; each worker runs its iterations on its own
// machine and counts final states by their layout key. The fingerprint
// and the condition are evaluated once per distinct key of each worker,
// not once per run.
func RunCtx(ctx context.Context, t *litmus.Test, cfg Config) (*Outcome, error) {
	if cfg.Chip == nil {
		return nil, fmt.Errorf("harness: no chip configured")
	}
	if cfg.Runs <= 0 {
		cfg.Runs = DefaultRuns
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	code, err := sim.Compile(t, cfg.Chip, cfg.Incant)
	if err != nil {
		return nil, err
	}
	l := NewLayout(t)

	type partial struct {
		hist map[string]*int // runs by layout key
		err  error
	}
	parts := make([]partial, cfg.Parallelism)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := code.NewMachine()
			p := &parts[w]
			p.hist = make(map[string]*int)
			var key []byte
			for i := w; i < cfg.Runs; i += cfg.Parallelism {
				if err := ctx.Err(); err != nil {
					p.err = err
					return
				}
				if _, err := m.Run(cfg.Seed + int64(i)); err != nil {
					p.err = err
					return
				}
				key = l.appendKey(key[:0], m)
				n := p.hist[string(key)]
				if n == nil {
					n = new(int)
					p.hist[string(key)] = n
				}
				*n++
			}
		}(w)
	}
	wg.Wait()

	out := &Outcome{Test: t, Config: cfg, Histogram: make(map[string]int, len(parts[0].hist)), Runs: cfg.Runs}
	st := newKeyState(l)
	var fp []byte
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		for k, n := range p.hist { // the outcome sums counts, so order does not matter
			st.key = append(st.key[:0], k...)
			fp = l.AppendFingerprint(fp[:0], st)
			out.Histogram[string(fp)] += *n
			if t.Exists.Eval(st) {
				out.Matches += *n
			}
		}
	}
	return out, nil
}

// Layout is a test's outcome identity, the slots of its observable final
// state: the condition's registers in the order sort.Strings gives their
// "t:r=v" parts (names are unique, so "0:r10=" precedes "0:r1="), then
// t.Locations(). Each slot's name is rendered once. A built layout is only
// read, so goroutines share it.
type Layout struct {
	slots []slot
}

// slot is one observable value: thread tid's register reg, or, when reg
// is empty, location loc.
type slot struct {
	name string // "0:r1=" or "x="
	tid  int
	reg  ptx.Reg
	loc  ptx.Sym
}

// NewLayout derives t's observable slots.
func NewLayout(t *litmus.Test) *Layout {
	l := &Layout{}
	l.addRegs(t.Exists)
	slices.SortFunc(l.slots, func(a, b slot) int { return strings.Compare(a.name, b.name) })
	for _, loc := range t.Locations() {
		l.slots = append(l.slots, slot{name: string(loc) + "=", loc: loc})
	}
	return l
}

// addRegs adds a slot for each register c mentions, once.
func (l *Layout) addRegs(c litmus.Cond) {
	switch c := c.(type) {
	case litmus.CondAnd:
		l.addRegs(c.L)
		l.addRegs(c.R)
	case litmus.CondOr:
		l.addRegs(c.L)
		l.addRegs(c.R)
	case litmus.CondNot:
		l.addRegs(c.C)
	case litmus.RegEq:
		name := strconv.Itoa(c.Thread) + ":" + string(c.Reg) + "="
		if !slices.ContainsFunc(l.slots, func(s slot) bool { return s.name == name }) {
			l.slots = append(l.slots, slot{name: name, tid: c.Thread, reg: c.Reg})
		}
	}
}

func (sl *slot) value(s litmus.State) (int64, bool) {
	if sl.reg != "" {
		return s.Reg(sl.tid, sl.reg)
	}
	return s.Mem(sl.loc)
}

// slotWidth is a key's bytes per slot: a presence byte, then the value.
const slotWidth = 9

// appendKey appends s's key: every slot at a fixed width, so that a key
// tells an absent register from one holding 0.
func (l *Layout) appendKey(b []byte, s litmus.State) []byte {
	for i := range l.slots {
		v, ok := l.slots[i].value(s)
		present := byte(0)
		if ok {
			present = 1
		}
		b = binary.LittleEndian.AppendUint64(append(b, present), uint64(v))
	}
	return b
}

// AppendFingerprint appends s's fingerprint to b: "name=value" per slot,
// separated by single spaces; an absent value renders as the 0 a State
// returns with it.
func (l *Layout) AppendFingerprint(b []byte, s litmus.State) []byte {
	for i := range l.slots {
		if i > 0 {
			b = append(b, ' ')
		}
		v, _ := l.slots[i].value(s)
		b = strconv.AppendInt(append(b, l.slots[i].name...), v, 10)
	}
	return b
}

// keyState reads a key as a litmus.State without decoding it: a slot's
// value is present as it was encoded, and a name outside the layout is
// absent.
type keyState struct {
	l   *Layout
	key []byte
}

func newKeyState(l *Layout) *keyState {
	return &keyState{l: l, key: make([]byte, 0, len(l.slots)*slotWidth)}
}

func (k *keyState) Reg(tid int, r ptx.Reg) (int64, bool) {
	return k.at(slices.IndexFunc(k.l.slots, func(s slot) bool { return s.reg == r && s.tid == tid }))
}

func (k *keyState) Mem(loc ptx.Sym) (int64, bool) {
	return k.at(slices.IndexFunc(k.l.slots, func(s slot) bool { return s.reg == "" && s.loc == loc }))
}

// read sets the view's key to fingerprint fp read back through the
// layout, every slot present. It accepts only what AppendFingerprint
// renders: the slots' names in order, canonical decimal values and single
// spaces.
func (k *keyState) read(fp string) bool {
	k.key = k.key[:0]
	for i := range k.l.slots {
		part, rest, more := strings.Cut(fp, " ")
		val, ok := strings.CutPrefix(part, k.l.slots[i].name)
		v, err := strconv.ParseInt(val, 10, 64)
		var canon [20]byte
		if !ok || err != nil || string(strconv.AppendInt(canon[:0], v, 10)) != val || more != (i+1 < len(k.l.slots)) {
			return false
		}
		k.key = binary.LittleEndian.AppendUint64(append(k.key, 1), uint64(v))
		fp = rest
	}
	return fp == ""
}

func (k *keyState) at(i int) (int64, bool) {
	if i < 0 {
		return 0, false
	}
	b := k.key[i*slotWidth : (i+1)*slotWidth]
	return int64(binary.LittleEndian.Uint64(b[1:])), b[0] == 1
}

// Per100k scales the match count to the paper's per-100k-runs convention.
func (o *Outcome) Per100k() int {
	if o.Runs == 0 {
		return 0
	}
	return int(float64(o.Matches) * 100000.0 / float64(o.Runs))
}

// Rate returns the fraction of runs matching the condition.
func (o *Outcome) Rate() float64 {
	if o.Runs == 0 {
		return 0
	}
	return float64(o.Matches) / float64(o.Runs)
}

// Observed reports whether the weak outcome occurred at all — for
// correctness what matters is the possibility, not probability, of weak
// behaviours (Sec. 4.3).
func (o *Outcome) Observed() bool { return o.Matches > 0 }

// String renders the outcome in the style of the litmus tool: a histogram
// of final states (the matching states starred) and an Observation line.
// A key is starred when it reads back through the test's layout and the
// condition holds on it; a key the layout does not render is not.
func (o *Outcome) String() string {
	b := fmt.Appendf(nil, "Test %s on %s (%s, %d runs)\nHistogram (%d states)\n",
		o.Test.Name, o.Config.Chip.ShortName, o.Config.Incant, o.Runs, len(o.Histogram))
	keys := make([]string, 0, len(o.Histogram))
	for k := range o.Histogram {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	st := newKeyState(NewLayout(o.Test))
	for _, k := range keys {
		marker := " :> "
		if st.read(k) && o.Test.Exists.Eval(st) {
			marker = " *> "
		}
		b = append(append(append(fmt.Appendf(b, "%-8d", o.Histogram[k]), marker...), k...), '\n')
	}
	state := "Never"
	switch {
	case o.Matches == o.Runs:
		state = "Always"
	case o.Matches > 0:
		state = "Sometimes"
	}
	b = fmt.Appendf(b, "Observation %s %s %d %d\n", o.Test.Name, state, o.Matches, o.Runs-o.Matches)
	return string(b)
}

// Fingerprint renders the observable part of a final state through t's
// layout: the registers the condition mentions and every location.
func Fingerprint(t *litmus.Test, s litmus.State) string {
	return string(NewLayout(t).AppendFingerprint(nil, s))
}
