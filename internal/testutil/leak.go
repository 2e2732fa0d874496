package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"gapbench/internal/par"
)

// CheckGoroutines asserts that the code under test does not leak goroutines:
// it snapshots the IDs of the running goroutines and returns a function
// (meant for defer) that fails the test if any goroutine not in that
// snapshot is still running. Every loop helper in internal/par and executor
// in internal/galois joins its workers before returning, so a lingering
// goroutine means a lost worker — at production scale, a slow leak that
// eventually starves the scheduler.
//
// Comparing identities rather than counts matters: a goroutine left over
// from an earlier test can exit while the check runs, and a count would
// then let a new, leaked goroutine take its place unnoticed.
//
// Workers parked in runtime.Gosched/timer sleeps can take a few scheduler
// ticks to unwind after wg.Wait returns, so the check polls with a deadline
// instead of sampling once.
//
//	defer testutil.CheckGoroutines(t)()
func CheckGoroutines(tb testing.TB) func() {
	return checkGoroutines(tb, 5*time.Second)
}

// checkGoroutines is CheckGoroutines with an injectable retry deadline.
func checkGoroutines(tb testing.TB, patience time.Duration) func() {
	tb.Helper()
	// The package-level par helpers lazily build the process-default
	// machine, whose pool goroutines live for the process lifetime. Warm it
	// before snapshotting so its workers are part of the baseline rather
	// than being reported as a leak by whichever test touches par first.
	par.Default()
	before := map[string]bool{}
	for _, g := range goroutines() {
		before[g.id] = true
	}
	return func() {
		tb.Helper()
		deadline := time.Now().Add(patience)
		var leaked []goroutine
		for {
			runtime.Gosched()
			leaked = leaked[:0]
			for _, g := range goroutines() {
				if !before[g.id] {
					leaked = append(leaked, g)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		tb.Errorf("goroutine leak: %d goroutine(s) started since the check began still running after %v; first:\n%s",
			len(leaked), patience, leaked[0].stack)
	}
}

// goroutine is one entry of a full runtime.Stack dump.
type goroutine struct {
	id    string // the number in the "goroutine N [state]:" header
	stack string
}

// goroutines lists every goroutine runtime.Stack reports (system goroutines
// excluded, as in runtime.NumGoroutine).
func goroutines() []goroutine {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []goroutine
	for _, block := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(block, "\n")
		rest, ok := strings.CutPrefix(header, "goroutine ")
		if !ok {
			continue
		}
		id, _, _ := strings.Cut(rest, " ")
		out = append(out, goroutine{id: id, stack: block})
	}
	return out
}
