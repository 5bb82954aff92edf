// Package harness runs litmus tests many times on the simulated GPUs and
// collects histograms of final states, the experimental method of Sec. 4.2
// of the paper: each test executes thousands of times under incantations
// (stress heuristics, Sec. 4.3) and the number of runs matching the final
// condition is reported per 100k executions.
package harness

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
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

// Outcome is the result of running one test under one configuration.
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
// machine and counts final states by their encoded key. Fingerprint and
// the condition are evaluated once per distinct key, not once per run.
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
	sk := newStateKey(t)

	type partial struct {
		hist keyHist
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
				key = sk.appendKey(key[:0], m)
				p.hist.add(key, 1)
			}
		}(w)
	}
	wg.Wait()

	var all keyHist
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		for i, k := range p.hist.keys {
			all.add([]byte(k), p.hist.counts[i])
		}
	}
	out := &Outcome{Test: t, Config: cfg, Histogram: make(map[string]int, len(all.keys)), Runs: cfg.Runs}
	for i, k := range all.keys {
		s := sk.state(k)
		out.Histogram[Fingerprint(t, s)] += all.counts[i]
		if t.Exists.Eval(s) {
			out.Matches += all.counts[i]
		}
	}
	return out, nil
}

// keyHist counts final states by encoded key. Counts live in a slice, so
// counting a key already seen allocates nothing.
type keyHist struct {
	index  map[string]int
	keys   []string
	counts []int
}

func (h *keyHist) add(key []byte, n int) {
	if i, ok := h.index[string(key)]; ok {
		h.counts[i] += n
		return
	}
	if h.index == nil {
		h.index = make(map[string]int)
	}
	k := string(key)
	h.index[k] = len(h.keys)
	h.keys = append(h.keys, k)
	h.counts = append(h.counts, n)
}

// stateKey encodes the observable part of a final state — the registers
// the condition mentions, then every location — as bytes: per value a
// presence byte, followed by the value when present. Two states with one
// key have the same Fingerprint and the same condition verdict, and the
// key tells an absent register from one holding 0.
type stateKey struct {
	regs []litmus.RegEq // Thread and Reg of each condition register
	locs []ptx.Sym
}

func newStateKey(t *litmus.Test) stateKey {
	var sk stateKey
	seen := make(map[litmus.RegEq]bool)
	for _, a := range litmus.CondAtoms(t.Exists) {
		if ra, ok := a.(litmus.RegEq); ok {
			r := litmus.RegEq{Thread: ra.Thread, Reg: ra.Reg}
			if !seen[r] {
				seen[r] = true
				sk.regs = append(sk.regs, r)
			}
		}
	}
	sk.locs = t.Locations()
	return sk
}

func (sk stateKey) appendKey(buf []byte, s litmus.State) []byte {
	for _, r := range sk.regs {
		v, ok := s.Reg(r.Thread, r.Reg)
		buf = appendValue(buf, v, ok)
	}
	for _, loc := range sk.locs {
		v, ok := s.Mem(loc)
		buf = appendValue(buf, v, ok)
	}
	return buf
}

func appendValue(buf []byte, v int64, ok bool) []byte {
	if !ok {
		return append(buf, 0)
	}
	return binary.LittleEndian.AppendUint64(append(buf, 1), uint64(v))
}

// state decodes a key into the state it was encoded from.
func (sk stateKey) state(key string) *litmus.MapState {
	s := litmus.NewMapState()
	next := func() (int64, bool) {
		present := key[0] == 1
		key = key[1:]
		if !present {
			return 0, false
		}
		v := int64(binary.LittleEndian.Uint64([]byte(key[:8])))
		key = key[8:]
		return v, true
	}
	for _, r := range sk.regs {
		if v, ok := next(); ok {
			s.SetReg(r.Thread, r.Reg, v)
		}
	}
	for _, loc := range sk.locs {
		if v, ok := next(); ok {
			s.SetMem(loc, v)
		}
	}
	return s
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
func (o *Outcome) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Test %s on %s (%s, %d runs)\n", o.Test.Name, o.Config.Chip.ShortName, o.Config.Incant, o.Runs)
	fmt.Fprintf(&sb, "Histogram (%d states)\n", len(o.Histogram))
	keys := make([]string, 0, len(o.Histogram))
	for k := range o.Histogram {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	match := o.matchingKeys()
	for _, k := range keys {
		marker := ":>"
		if match[k] {
			marker = "*>"
		}
		fmt.Fprintf(&sb, "%-8d %s %s\n", o.Histogram[k], marker, k)
	}
	state := "Never"
	switch {
	case o.Matches == o.Runs:
		state = "Always"
	case o.Matches > 0:
		state = "Sometimes"
	}
	fmt.Fprintf(&sb, "Observation %s %s %d %d\n", o.Test.Name, state, o.Matches, o.Runs-o.Matches)
	return sb.String()
}

// matchingKeys recomputes which histogram fingerprints satisfy the
// condition by replaying them through a state stub.
func (o *Outcome) matchingKeys() map[string]bool {
	match := make(map[string]bool, len(o.Histogram))
	for k := range o.Histogram {
		s, err := parseFingerprint(k)
		if err != nil {
			continue
		}
		match[k] = o.Test.Exists.Eval(s)
	}
	return match
}

// Fingerprint renders the observable part of a final state: the registers
// mentioned by the test's condition and every memory location, in
// deterministic order.
func Fingerprint(t *litmus.Test, s litmus.State) string {
	var parts []string
	seen := make(map[string]bool)
	for _, a := range litmus.CondAtoms(t.Exists) {
		if ra, ok := a.(litmus.RegEq); ok {
			key := fmt.Sprintf("%d:%s", ra.Thread, ra.Reg)
			if seen[key] {
				continue
			}
			seen[key] = true
			v, _ := s.Reg(ra.Thread, ra.Reg)
			parts = append(parts, fmt.Sprintf("%s=%d", key, v))
		}
	}
	sort.Strings(parts)
	var mems []string
	for _, loc := range t.Locations() {
		v, _ := s.Mem(loc)
		mems = append(mems, fmt.Sprintf("%s=%d", loc, v))
	}
	return strings.Join(append(parts, mems...), " ")
}

// parseFingerprint reconstructs a State from a fingerprint.
func parseFingerprint(fp string) (litmus.State, error) {
	s := litmus.NewMapState()
	for _, part := range strings.Fields(fp) {
		eq := strings.SplitN(part, "=", 2)
		if len(eq) != 2 {
			return nil, fmt.Errorf("harness: bad fingerprint part %q", part)
		}
		var v int64
		if _, err := fmt.Sscanf(eq[1], "%d", &v); err != nil {
			return nil, err
		}
		if colon := strings.Index(eq[0], ":"); colon >= 0 {
			var tid int
			if _, err := fmt.Sscanf(eq[0][:colon], "%d", &tid); err != nil {
				return nil, err
			}
			s.SetReg(tid, ptx.Reg(eq[0][colon+1:]), v)
		} else {
			s.SetMem(ptx.Sym(eq[0]), v)
		}
	}
	return s, nil
}
