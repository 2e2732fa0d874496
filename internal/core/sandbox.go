package core

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"gapbench/internal/graph"
	"gapbench/internal/par"
)

// Outcome is the result of one sandboxed run in the Status taxonomy.
type Outcome struct {
	Status Status
	// Seconds is the body's wall time (zero when it panicked before
	// returning).
	Seconds float64
	// Err carries the panic value or timeout note; Stack the trimmed stack
	// of a Panicked run.
	Err   string
	Stack string
}

// Sandbox is the one trial sandbox (DESIGN.md §9), shared by the suite
// runner's trials and the daemon's served queries. Each caller brings what
// it owns — the machine, its cancel token, the deadline — and Run owns the
// rest: the goroutine, panic recovery, the graphguard seal checks, the
// fired-token → TimedOut rule, and grace-bounded abandonment.
type Sandbox struct {
	// Name prefixes every message ("GAP BFS on Kron").
	Name string
	// Machine runs the body's parallel regions; Cancel is installed on it
	// for the run (the caller also threads it through kernel.Options).
	Machine *par.Machine
	Cancel  *par.CancelToken
	// Deadline is when Cancel is fired if the body has not returned; the
	// zero value means no deadline and no timer. Grace is how long past it
	// the body may ignore the fired token before the machine is abandoned.
	Deadline time.Time
	Grace    time.Duration
	// Seals are the graph views re-checked after the body returns (no-ops
	// unless built with graphguard). They are captured here, before the
	// goroutine starts, so an abandoned run never reads its caller's state.
	Seals []*graph.Graph
}

// Run executes body on its own goroutine under recover. body writes its
// outputs through its closure; the caller may read them only when the
// outcome is OK, since a cancelled run's partial output is discarded as
// TimedOut.
//
// When the body ignores its fired token past the grace period, Run returns
// TimedOut at once and hands back reap, non-nil only then: reap blocks until
// the abandoned goroutine has exited and then closes the machine, so whoever
// calls it knows nothing of the run can still touch the graph. The token
// stays installed on the abandoned machine, so a late-polling kernel still
// drains fast.
func (sb Sandbox) Run(body func()) (Outcome, func()) {
	sb.Machine.SetCancel(sb.Cancel)
	var out Outcome // written by the goroutine, read only after done closes
	done := make(chan struct{})
	go func() {
		defer close(done)
		var seconds float64
		out = Guard(sb.Name, func() {
			start := time.Now()
			body()
			seconds = time.Since(start).Seconds()
			// graphguard: the shared CSR must be byte-identical after every
			// run. A mutation panics here, inside the sandbox, so it surfaces
			// as a Panicked outcome naming the corrupted array instead of as
			// a wrong answer.
			for _, g := range sb.Seals {
				g.MustCheckSeal()
			}
		})
		out.Seconds = seconds
		if out.Status == OK && sb.Cancel.Cancelled() {
			// The body returned, but only because its token fired.
			out.Status = TimedOut
			out.Err = sb.Name + ": deadline exceeded"
		}
	}()

	if !sb.Deadline.IsZero() {
		expire := time.NewTimer(time.Until(sb.Deadline))
		defer expire.Stop()
		select {
		case <-done:
		case <-expire.C:
			sb.Cancel.Cancel() // idempotent with a deadline token; also covers a chained one
			grace := time.NewTimer(sb.Grace)
			defer grace.Stop()
			select {
			case <-done:
			case <-grace.C:
				m := sb.Machine
				return Outcome{
					Status: TimedOut,
					Err:    fmt.Sprintf("%s: kernel ignored cancellation for %v past its deadline; machine abandoned", sb.Name, sb.Grace),
				}, func() { <-done; m.Close() }
			}
		}
	}
	<-done
	sb.Machine.SetCancel(nil)
	return out, nil
}

// Guard runs fn on the calling goroutine and converts a panic into a
// Panicked outcome carrying the value (prefixed by name) and a trimmed
// stack. The trial sandbox, the untimed Prepare, and the daemon's
// verification and cache-hit paths all report panics through it.
func Guard(name string, fn func()) (out Outcome) {
	defer func() {
		if pv := recover(); pv != nil {
			out = Outcome{Status: Panicked, Err: fmt.Sprintf("%s: panic: %v", name, pv), Stack: trimStack(debug.Stack())}
		}
	}()
	fn()
	return Outcome{Status: OK}
}

// trimStack keeps the head of a panic stack (the frames that identify the
// fault) and drops the scheduler noise below.
func trimStack(stack []byte) string {
	lines := strings.Split(strings.TrimSpace(string(stack)), "\n")
	const maxLines = 24
	if len(lines) > maxLines {
		lines = append(lines[:maxLines], "... (stack trimmed)")
	}
	return strings.Join(lines, "\n")
}
