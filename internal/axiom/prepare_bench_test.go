package axiom

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// reparsed returns each test of corpus parsed back from its printed
// source, the form the judge workload and the daemon prepare.
func reparsed(tb testing.TB, corpus []*litmus.Test) []*litmus.Test {
	tb.Helper()
	out := make([]*litmus.Test, len(corpus))
	for i, t := range corpus {
		p, err := litmus.Parse(t.String())
		if err != nil {
			tb.Fatalf("%s: %v", t.Name, err)
		}
		out[i] = p
	}
	return out
}

// largeShapes are the judge-large workload's shapes: mp with k = 1…3
// extra writers, fenced and not, and five symmetric writers.
func largeShapes() []*litmus.Test {
	var out []*litmus.Test
	for k := 1; k <= 3; k++ {
		out = append(out, litmustest.MPWriters(k, false), litmustest.MPWriters(k, true))
	}
	return append(out, litmustest.SymWriters(5))
}

// BenchmarkPrepare times the value-domain fixpoint alone. One op prepares
// every test of the corpus once: corpus is the 24 paper tests and the 776
// diy cycles, each parsed from its printed source; large is the seven
// judge-large shapes.
func BenchmarkPrepare(b *testing.B) {
	for _, c := range []struct {
		name  string
		tests []*litmus.Test
	}{
		{"corpus", reparsed(b, slices.Concat(litmustest.Paper(), litmustest.Cycles()))},
		{"large", largeShapes()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, t := range c.tests {
					if _, err := Prepare(t, DefaultOpts()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestPrepareAllocsPerTest pins the fixpoint's allocations: it allocates
// only what it returns (the slots, the enumeration, the domains and, per
// derivation, one slab each of paths, events, registers and dependency
// lists), its working storage pooled. Over the paper tests and the diy
// cycles, parsed from their printed sources, that measured 14.4
// allocations per test (the map-based fixpoint made 65.3); the pin leaves
// about 20% headroom.
func TestPrepareAllocsPerTest(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race instrumentation")
	}
	corpus := reparsed(t, slices.Concat(litmustest.Paper(), litmustest.Cycles()))
	allocs := testing.AllocsPerRun(5, func() {
		for _, test := range corpus {
			if _, err := Prepare(test, DefaultOpts()); err != nil {
				t.Fatal(err)
			}
		}
	})
	per := allocs / float64(len(corpus))
	t.Logf("%.2f allocations per test (%d tests)", per, len(corpus))
	if per > 17.5 {
		t.Errorf("Prepare makes %.2f allocations per test, want at most 17.5", per)
	}
}

// TestPrepareConcurrentMatchesSerial prepares the same tests from several
// goroutines at once, each borrowing scratches from the shared pool: every
// preparation must equal the serial one.
func TestPrepareConcurrentMatchesSerial(t *testing.T) {
	corpus := slices.Concat(litmustest.Paper(), litmustest.Producer(), []*litmus.Test{litmustest.LongPath()})
	want := make([]*Enumeration, len(corpus))
	for i, test := range corpus {
		en, err := Prepare(test, DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		want[i] = en
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, test := range corpus {
				en, err := Prepare(test, DefaultOpts())
				if err != nil {
					t.Errorf("%s: %v", test.Name, err)
					return
				}
				if !reflect.DeepEqual(en.paths, want[i].paths) || !reflect.DeepEqual(en.dom, want[i].dom) {
					t.Errorf("%s: a concurrent preparation differs from the serial one", test.Name)
				}
			}
		}()
	}
	wg.Wait()
}
