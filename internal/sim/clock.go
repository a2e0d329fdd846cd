// Package sim provides the deterministic time substrate the rest of the
// system runs on: a Clock interface implemented both by the real wall clock
// and by a virtual discrete-event clock whose time advances only by draining
// an event heap. Production code holds a Clock and never calls the time
// package directly on simulated paths; tests and the fleet simulator swap in
// a VirtualClock and replay thousands of brokers in simulated time, byte-
// identically from a seed.
//
// The package imports only the standard library so every layer (transport,
// broker, core, replication, store, chaos) can depend on it without cycles.
package sim

import "time"

// Clock abstracts every time operation the system performs. Wall is the
// production implementation; VirtualClock is the simulated one.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since is shorthand for Now().Sub(t).
	Since(t time.Time) time.Duration
	// Until is shorthand for t.Sub(Now()).
	Until(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d. On a VirtualClock it must
	// not be called from an event callback (the loop would deadlock); it is
	// for foreign goroutines that want to pace themselves in virtual time.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time after d.
	After(d time.Duration) <-chan time.Time
	// AfterFunc arranges for fn to run after d and returns a Timer that can
	// Stop or Reset it. On Wall fn runs on its own goroutine; on a
	// VirtualClock fn runs on the event-loop goroutine.
	AfterFunc(d time.Duration, fn func()) Timer
	// NewTimer returns a Timer whose channel fires once after d.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a Ticker whose channel fires every d.
	NewTicker(d time.Duration) Ticker
}

// Timer mirrors *time.Timer behind an interface so virtual timers can stand
// in for real ones.
type Timer interface {
	// C returns the firing channel (nil for AfterFunc timers).
	C() <-chan time.Time
	// Stop cancels the timer; it reports whether the stop prevented the
	// firing (same contract as time.Timer.Stop).
	Stop() bool
	// Reset re-arms the timer for d from now (same contract as
	// time.Timer.Reset).
	Reset(d time.Duration) bool
}

// Ticker mirrors *time.Ticker behind an interface.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Scheduler is the capability a Clock exposes when it owns a serialized
// event loop. Components that normally run their own goroutines (link
// delivery, broker dispatch) detect it with a type assertion and post
// events instead, so the whole cluster executes on one
// goroutine in a deterministic order.
type Scheduler interface {
	Clock
	// Post schedules fn to run on the event loop at the current virtual
	// time, after everything already queued for that instant.
	Post(fn func())
}

// Wall is the production Clock: thin adapters over the time package.
var Wall Clock = wallClock{}

// Or returns clk, or Wall when clk is nil — the idiom for defaulting
// optional Clock fields in config structs.
func Or(clk Clock) Clock {
	if clk == nil {
		return Wall
	}
	return clk
}

// SchedulerOf returns the Scheduler capability of clk, or nil when clk is a
// real-time clock.
func SchedulerOf(clk Clock) Scheduler {
	if s, ok := clk.(Scheduler); ok {
		return s
	}
	return nil
}

type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (wallClock) Until(t time.Time) time.Duration        { return time.Until(t) }
func (wallClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (wallClock) AfterFunc(d time.Duration, fn func()) Timer {
	return wallTimer{t: time.AfterFunc(d, fn)}
}

func (wallClock) NewTimer(d time.Duration) Timer   { return wallTimer{t: time.NewTimer(d)} }
func (wallClock) NewTicker(d time.Duration) Ticker { return wallTicker{t: time.NewTicker(d)} }

type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time        { return w.t.C }
func (w wallTimer) Stop() bool                 { return w.t.Stop() }
func (w wallTimer) Reset(d time.Duration) bool { return w.t.Reset(d) }

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()               { w.t.Stop() }
