//go:build linux

package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks the calling goroutine's thread until t in
// nanosleep(2), with the thread's timer slack lowered to 1ns so it wakes
// within microseconds. The Go runtime's own timers round sub-millisecond
// sleeps up to about a millisecond, which at the rates the live workloads
// offer would make the generator, not the server, set the latency
// figures. The slack is set on every call because the goroutine may have
// moved to another thread.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: without it sleeps are just coarser, which loadgen.late_* shows
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}
