package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time uint64

// Duration is a span of virtual time in nanoseconds.
type Duration uint64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t. It panics if u is after t, which
// always indicates a simulation bookkeeping bug.
func (t Time) Sub(u Time) Duration {
	if u > t {
		panic(fmt.Sprintf("sim: negative duration: %d - %d", t, u))
	}
	return Duration(t - u)
}

// Seconds returns the duration in (floating point) seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", uint64(d))
	}
}

// Interval returns the per-event interval for the given event rate
// (events per second). A zero or negative rate panics: the simulation
// cannot make progress with an infinite interval.
func Interval(ratePerSec float64) Duration {
	if ratePerSec <= 0 {
		panic("sim: non-positive rate")
	}
	return Duration(float64(Second) / ratePerSec)
}

// Clock is the virtual clock. The zero value is a clock at time zero,
// ready for use. Clock is not safe for concurrent use; the simulation is
// single-threaded by design so results are exactly reproducible. Parallel
// harnesses give each trial its own clock (see World). Under -race builds
// an owner-goroutine guard panics on cross-goroutine use; ownership can be
// transferred deliberately with Handoff.
type Clock struct {
	now   Time
	guard clockGuard
}

// NewClock returns a clock starting at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	c.check()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
func (c *Clock) Advance(d Duration) Time {
	c.check()
	c.now += Time(d)
	return c.now
}

// AdvanceTo moves the clock forward to t. Moving backwards panics.
func (c *Clock) AdvanceTo(t Time) {
	c.check()
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moving backwards: %d -> %d", c.now, t))
	}
	c.now = t
}

// Restore sets the clock to an absolute time, backwards moves included.
// It exists solely for snapshot restoration (a freshly built device's
// clock starts at zero and jumps to the checkpointed instant); simulation
// code must use Advance/AdvanceTo, which enforce monotonicity.
func (c *Clock) Restore(t Time) {
	c.check()
	c.now = t
}
