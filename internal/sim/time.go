// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives every model in this repository: GPU warps and host
// CPU threads are sim processes, and NIC engines and PCIe links are
// event callbacks, all advancing a shared virtual clock. Determinism is
// guaranteed by running one piece at a time: the event loop runs on the
// Run caller's goroutine and switches into at most one process coroutine
// at any instant, and simultaneous events fire in the order they were
// scheduled.
package sim

import "fmt"

// Time is a point in virtual time, measured in picoseconds. Picosecond
// resolution lets us express sub-nanosecond hardware clocks (an EXTOLL
// FPGA cycle at 157 MHz is 6369 ps) without rounding drift.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Convenient duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts d to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds converts d to floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Nanoseconds converts d to floating-point nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// String formats d using the most natural unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3gns", d.Nanoseconds())
	case d < Millisecond:
		return fmt.Sprintf("%.4gus", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.4gms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", d.Seconds())
	}
}

// String formats t as a duration since time zero.
func (t Time) String() string { return Duration(t).String() }

// Nanoseconds builds a Duration from a floating-point nanosecond count.
func Nanoseconds(ns float64) Duration { return Duration(ns * float64(Nanosecond)) }

// Microseconds builds a Duration from a floating-point microsecond count.
func Microseconds(us float64) Duration { return Duration(us * float64(Microsecond)) }

// BytesAt returns the time needed to move n bytes at rate bytesPerSecond.
func BytesAt(n int, bytesPerSecond float64) Duration {
	if n <= 0 || bytesPerSecond <= 0 {
		return 0
	}
	return Duration(float64(n) / bytesPerSecond * float64(Second))
}
