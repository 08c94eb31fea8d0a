package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. time.Sleep wakes through the runtime's
// netpoller, whose timeout has millisecond resolution on Linux, which
// would make the open-loop generator run up to a millisecond late; a
// nanosleep in the calling thread wakes within the kernel's timer slack
// (~50 µs).
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
