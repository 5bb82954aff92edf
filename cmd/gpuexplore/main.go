// Command gpuexplore regenerates every empirical table and figure of the
// paper against the simulated chips and emits a paper-vs-measured report
// (the content of EXPERIMENTS.md). All sweeps run concurrently on the
// campaign engine; the report is deterministic in the flags alone.
//
// Usage (-runs defaults to the paper's 100,000 iterations per cell):
//
//	gpuexplore -validate-tests 500 > EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/weakgpu/gpulitmus/internal/experiments"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/obs"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case err == errFlagParse:
		os.Exit(2) // the FlagSet already printed the error and usage
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

var errFlagParse = fmt.Errorf("gpuexplore: bad flags")

// run executes the command against argv, writing the report to w and live
// -progress lines to ew (stderr in main, so the report on stdout stays
// redirectable).
func run(argv []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("gpuexplore", flag.ContinueOnError)
	runs := fs.Int("runs", harness.DefaultRuns, "iterations per table cell (the paper's count)")
	seed := fs.Int64("seed", 20150314, "base seed")
	validateTests := fs.Int("validate-tests", 150, "generated tests for the Sec. 5.4 validation")
	validateRuns := fs.Int("validate-runs", 500, "iterations per generated test per chip")
	progress := fs.Bool("progress", false, "print a running cells-completed line to stderr as sweeps execute (the report on stdout is unchanged)")
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errFlagParse
	}

	opts := experiments.Opts{Runs: *runs, Seed: *seed}
	if *progress {
		// Cell events arrive concurrently from the campaign worker pool
		// and indices restart per sweep, so the sink keeps one cumulative
		// tally under a mutex.
		var mu sync.Mutex
		var done int
		opts.Sink = func(ev obs.CellEvent) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case obs.CellFinish:
				done++
				fmt.Fprintf(ew, "gpuexplore: %d cells done (last seed=%d in %v)\n", done, ev.Seed, ev.Elapsed.Round(time.Microsecond))
			case obs.CellError:
				fmt.Fprintf(ew, "gpuexplore: cell seed=%d error after %v: %s\n", ev.Seed, ev.Elapsed.Round(time.Microsecond), ev.Err)
			}
		}
	}
	report, err := experiments.Report(opts, *validateTests, *validateRuns)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, report)
	return err
}
