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
// The test is resolved and compiled once; each worker runs its iterations
// on its own machine and counts final states by their layout key. The
// fingerprint and the condition are evaluated on the machine's final state
// once per distinct key of each worker, not once per run.
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
	slots := litmus.NewSlots(t)
	code, err := sim.Compile(t, slots, cfg.Chip, cfg.Incant)
	if err != nil {
		return nil, err
	}
	l := NewLayout(t, slots)

	// state is a worker's distinct layout key: runs, fingerprint, match.
	type state struct {
		n     int
		fp    string
		match bool
	}
	type partial struct {
		hist map[string]*state // by layout key
		err  error
	}
	// A worker beyond the run count would get no iteration but still build
	// a machine and a map.
	workers := min(cfg.Parallelism, cfg.Runs)
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := code.NewMachine()
			p := &parts[w]
			p.hist = make(map[string]*state)
			var key, fp []byte
			for i := w; i < cfg.Runs; i += workers {
				if err := ctx.Err(); err != nil {
					p.err = err
					return
				}
				if _, err := m.Run(cfg.Seed + int64(i)); err != nil {
					p.err = err
					return
				}
				f := m.Final()
				key = l.appendKey(key[:0], f)
				st := p.hist[string(key)]
				if st == nil {
					fp = l.AppendFingerprint(fp[:0], f)
					st = &state{fp: string(fp), match: t.Exists.Eval(f)}
					p.hist[string(key)] = st
				}
				st.n++
			}
		}(w)
	}
	wg.Wait()

	out := &Outcome{Test: t, Config: cfg, Histogram: make(map[string]int, len(parts[0].hist)), Runs: cfg.Runs}
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		for _, st := range p.hist { // the outcome sums counts, so order does not matter
			out.Histogram[st.fp] += st.n
			if st.match {
				out.Matches += st.n
			}
		}
	}
	return out, nil
}

// Layout is a test's outcome identity, the slots of its observable final
// state, read by index: the condition's registers in the order sort.Strings
// gives their "t:r=v" parts (names are unique, so "0:r10=" precedes
// "0:r1="), then t.Locations(). Each slot's name is rendered once. A built
// layout is only read, so goroutines share it.
type Layout struct {
	slots []slot
}

// slot is one observable: its rendered name and its slot in the
// resolution (-1, always absent, for a register of a thread t lacks).
type slot struct {
	name string // "0:r1=" or "x="
	at   int
}

// NewLayout derives t's observable slots from s, t's resolution.
func NewLayout(t *litmus.Test, s *litmus.Slots) *Layout {
	l := &Layout{}
	litmus.CondRegs(t.Exists, func(a litmus.RegEq) {
		name := strconv.Itoa(a.Thread) + ":" + string(a.Reg) + "="
		if !slices.ContainsFunc(l.slots, func(s slot) bool { return s.name == name }) {
			l.slots = append(l.slots, slot{name: name, at: s.Reg(a.Thread, a.Reg)})
		}
	})
	slices.SortFunc(l.slots, func(a, b slot) int { return strings.Compare(a.name, b.name) })
	for i, loc := range s.Locs() {
		l.slots = append(l.slots, slot{name: string(loc) + "=", at: i})
	}
	return l
}

// slotWidth is a key's bytes per slot: a presence byte, then the value.
const slotWidth = 9

// appendKey appends f's key: every slot at a fixed width, so that a key
// tells an absent register from one holding 0.
func (l *Layout) appendKey(b []byte, f *litmus.Final) []byte {
	for i := range l.slots {
		v, ok := f.At(l.slots[i].at)
		present := byte(0)
		if ok {
			present = 1
		}
		b = binary.LittleEndian.AppendUint64(append(b, present), uint64(v))
	}
	return b
}

// AppendFingerprint appends f's fingerprint to b: "name=value" per slot,
// separated by single spaces; an absent value renders as 0.
func (l *Layout) AppendFingerprint(b []byte, f *litmus.Final) []byte {
	for i := range l.slots {
		if i > 0 {
			b = append(b, ' ')
		}
		v, _ := f.At(l.slots[i].at)
		b = strconv.AppendInt(append(b, l.slots[i].name...), v, 10)
	}
	return b
}

// read sets f to fingerprint fp read back through the layout: every
// layout slot present, every other slot absent. It accepts only what
// AppendFingerprint renders: the slots' names in order, canonical decimal
// values and single spaces.
func (l *Layout) read(f *litmus.Final, fp string) bool {
	f.Reset(f.Slots())
	for i := range l.slots {
		part, rest, more := strings.Cut(fp, " ")
		val, ok := strings.CutPrefix(part, l.slots[i].name)
		v, err := strconv.ParseInt(val, 10, 64)
		var canon [20]byte
		if !ok || err != nil || string(strconv.AppendInt(canon[:0], v, 10)) != val || more != (i+1 < len(l.slots)) {
			return false
		}
		f.Set(l.slots[i].at, v)
		fp = rest
	}
	return fp == ""
}

// Per100k scales the match count to the paper's per-100k-runs convention.
func (o *Outcome) Per100k() int {
	if o.Runs == 0 {
		return 0
	}
	return int(float64(o.Matches) * 100000.0 / float64(o.Runs))
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
	slots := litmus.NewSlots(o.Test)
	l, st := NewLayout(o.Test, slots), slots.NewFinal()
	for _, k := range keys {
		marker := " :> "
		if l.read(st, k) && o.Test.Exists.Eval(st) {
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

// Fingerprint renders the observable part of f, a final state of t,
// through t's layout: the registers the condition mentions and every
// location.
func Fingerprint(t *litmus.Test, f *litmus.Final) string {
	return string(NewLayout(t, f.Slots()).AppendFingerprint(nil, f))
}
