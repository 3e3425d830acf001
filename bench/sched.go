package main

import (
	"fmt"
	"strings"
	"time"
)

// phaseClock records how long each phase of a run took, for the time
// budget.
type phaseClock struct {
	last  time.Time
	parts []string
}

func newPhaseClock() *phaseClock { return &phaseClock{last: time.Now()} }

func (c *phaseClock) mark(phase string) {
	now := time.Now()
	c.parts = append(c.parts, fmt.Sprintf("%s %.1fs", phase, now.Sub(c.last).Seconds()))
	c.last = now
}

func (c *phaseClock) String() string { return strings.Join(c.parts, ", ") }

// sample is one timed request. Times are offsets from the start of the
// phase that issued it.
type sample struct {
	due  time.Duration // when the schedule said to send it
	sent time.Duration // when it was actually sent
	done time.Duration // when the last response byte was read
	err  error
}

// failedLatency is the latency booked for a request that failed, was
// refused or timed out: the client's own timeout, so a failure can
// never improve a percentile.
const failedLatency = requestTimeout

// latency is what the user waited: from the due time, not the send
// time, so a stall is charged to every request queued behind it.
func (s sample) latency() time.Duration {
	if s.err != nil {
		return failedLatency
	}
	return s.done - s.due
}

// openLoop sends n requests from the calling goroutine on a fixed
// schedule: request i is due at start + i*interval whether or not the
// ones before it have finished. One goroutine owns one connection, so
// a late response delays the sends behind it; that delay is in every
// later sample's latency and, separately, in sent-due.
func openLoop(start time.Time, n int, interval time.Duration, do func(i int) error) []sample {
	out := make([]sample, n)
	for i := range out {
		due := time.Duration(i) * interval
		if wait := time.Until(start.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(start)
		err := do(i)
		out[i] = sample{due: due, sent: sent, done: time.Since(start), err: err}
	}
	return out
}

// closedLoop sends requests back to back from the calling goroutine
// until more returns false. A closed-loop request is due when it is
// sent.
func closedLoop(start time.Time, more func(i int) bool, do func(i int) error) []sample {
	var out []sample
	for i := 0; more(i); i++ {
		sent := time.Since(start)
		err := do(i)
		out = append(out, sample{due: sent, sent: sent, done: time.Since(start), err: err})
	}
	return out
}

func latenciesMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.latency()) / float64(time.Millisecond)
	}
	return out
}

func latenessMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.sent-s.due) / float64(time.Millisecond)
	}
	return out
}

func countFailed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.err != nil {
			n++
		}
	}
	return n
}
