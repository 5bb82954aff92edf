// Package apps runs the application studies of Sec. 3.2 end to end on the
// simulator: the CUDA by Example dot-product lock (Fig. 2), the
// Cederman–Tsigas work-stealing deque (Fig. 6), and the He–Yu transaction
// lock (Fig. 10) — each in its original (broken) and repaired form. Where
// the litmus tests of Figs. 7-11 distil single interactions, these apps
// exercise the full code paths (spin loops included) and count incorrect
// results.
package apps

import (
	"fmt"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

// App is an application study: a program whose Exists condition witnesses
// an incorrect result.
type App struct {
	Name string
	Doc  string
	Test *litmus.Test
}

// Report counts incorrect outcomes over many runs.
type Report struct {
	App        string
	Chip       string
	Runs       int
	Violations int
}

// String summarises the report.
func (r *Report) String() string {
	verdict := "correct in all runs"
	if r.Violations > 0 {
		verdict = fmt.Sprintf("INCORRECT in %d/%d runs", r.Violations, r.Runs)
	}
	return fmt.Sprintf("%s on %s: %s", r.App, r.Chip, verdict)
}

// Run executes the app runs times, at seeds seed, seed+1, ..., on one
// machine and counts violations.
func (a *App) Run(p *chip.Profile, inc chip.Incant, runs int, seed int64) (*Report, error) {
	code, err := sim.Compile(a.Test, litmus.NewSlots(a.Test), p, inc)
	if err != nil {
		return nil, err
	}
	m := code.NewMachine()
	rep := &Report{App: a.Name, Chip: p.ShortName, Runs: runs}
	for i := 0; i < runs; i++ {
		if _, err := m.Run(seed + int64(i)); err != nil {
			return nil, err
		}
		if a.Test.Exists.Eval(m.Final()) {
			rep.Violations++
		}
	}
	return rep, nil
}

// DotProduct is the finale of CUDA by Example's dot product (Fig. 2 plus
// App. 1.2): each contributor adds 1 to a global sum under the spin lock.
// Without the erratum's fences the critical section can read a stale sum
// and lose an update; the violation condition is "final sum is not the
// contributor count".
func DotProduct(fenced bool, contributors int) *App {
	name := "dot-product"
	if fenced {
		name += "+fences"
	}
	b := litmus.NewTest(name).
		Global("sum", 0).Global("m", 0)
	for i := 0; i < contributors; i++ {
		b = b.Thread(lockUnlockBody(fenced)...)
	}
	test := b.InterCTA().
		Exists(fmt.Sprintf("~sum=%d", contributors)).
		MustBuild()
	return &App{
		Name: name,
		Doc:  "CUDA by Example dot product: global sum under the Fig. 2 spin lock",
		Test: test,
	}
}

// lockUnlockBody is one contributor: spin-acquire, read-modify-write the
// sum, release — the Fig. 2 lock with or without the erratum's fences.
func lockUnlockBody(fenced bool) []string {
	var body []string
	body = append(body,
		"SPIN:",
		"atom.cas r0,[m],0,1",
		"setp.eq p1,r0,0",
		"@!p1 bra SPIN",
	)
	if fenced {
		body = append(body, "membar.gl")
	}
	body = append(body,
		"ld.cg r1,[sum]",
		"add r2,r1,1",
		"st.cg [sum],r2",
	)
	if fenced {
		body = append(body, "membar.gl")
	}
	body = append(body, "atom.exch r9,[m],0")
	return body
}

// WorkStealingDeque is the Fig. 6 push/steal interaction run whole: the
// owner pushes task 7 and publishes it by incrementing tail; the thief
// polls tail and, on seeing the task, reads it and claims it with a CAS on
// head. The violation is a successful claim of a stale (zero) task — the
// deque losing a task (Sec. 3.2.1).
func WorkStealingDeque(fenced bool) *App {
	name := "work-stealing-deque"
	if fenced {
		name += "+fences"
	}
	ownerFence, thiefFence := "", ""
	if fenced {
		ownerFence = "membar.gl"
		thiefFence = "@!p4 membar.gl"
	}
	test := litmus.NewTest(name).
		Global("task0", 0).Global("tail", 0).Global("head", 0).
		Thread(
			"st.cg [task0],7",
			ownerFence,
			"ld.volatile r2,[tail]",
			"add r2,r2,1",
			"st.volatile [tail],r2",
		).
		Thread(
			"ld.volatile r0,[tail]",
			"setp.eq p4,r0,0",
			thiefFence,
			"@!p4 ld.cg r1,[task0]",
			"@!p4 atom.cas r3,[head],0,1",
		).
		InterCTA().
		Exists("1:r0=1 /\\ 1:r1=0 /\\ 1:r3=0").
		MustBuild()
	return &App{
		Name: name,
		Doc:  "Cederman-Tsigas work-stealing deque: steal claims a task whose payload it read stale",
		Test: test,
	}
}

// TransactionIsolation is the He–Yu database lock (Fig. 10) run whole: T0
// holds the lock, reads the database cell inside its critical section, and
// releases; T1 spin-acquires, writes the cell in its own critical section,
// and releases. Isolation is violated when T0's read returns T1's future
// write (Sec. 3.2.3).
func TransactionIsolation(fixed bool) *App {
	name := "transactions"
	if fixed {
		name += "+fixed"
	}
	var t0 []string
	t0 = append(t0, "ld.cg r0,[x]")
	if fixed {
		t0 = append(t0, "membar.gl", "atom.exch r1,[lock],0")
	} else {
		t0 = append(t0, "st.cg [lock],0", "membar.gl")
	}
	var t1 []string
	t1 = append(t1,
		"SPIN:",
		"atom.cas r2,[lock],0,1",
		"setp.eq p1,r2,0",
		"@!p1 bra SPIN",
	)
	if fixed {
		t1 = append(t1, "membar.gl")
	}
	t1 = append(t1, "st.cg [x],1")
	if fixed {
		t1 = append(t1, "membar.gl", "atom.exch r9,[lock],0")
	} else {
		t1 = append(t1, "st.cg [lock],0")
	}
	test := litmus.NewTest(name).
		Global("x", 0).Global("lock", 1).
		Thread(t0...).
		Thread(t1...).
		InterCTA().
		Exists("0:r0=1").
		MustBuild()
	return &App{
		Name: name,
		Doc:  "He-Yu transactions: a critical section reads a value written by the next critical section",
		Test: test,
	}
}

// All returns every application study, broken and repaired.
func All() []*App {
	return []*App{
		DotProduct(false, 2), DotProduct(true, 2),
		WorkStealingDeque(false), WorkStealingDeque(true),
		TransactionIsolation(false), TransactionIsolation(true),
	}
}

// Summary runs every app on the chip and formats one line per app.
func Summary(p *chip.Profile, inc chip.Incant, runs int, seed int64) (string, error) {
	var sb strings.Builder
	for _, a := range All() {
		rep, err := a.Run(p, inc, runs, seed)
		if err != nil {
			return "", err
		}
		sb.WriteString(rep.String() + "\n")
	}
	return sb.String(), nil
}
