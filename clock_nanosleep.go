//go:build linux || freebsd || netbsd || openbsd || dragonfly

package repro

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep(2), which wakes
// within tens of microseconds, unlike the runtime's millisecond-granular
// idle wait.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
