//go:build !(linux || freebsd || netbsd || openbsd || dragonfly)

package repro

import "time"

// preciseSleep: this platform's syscall package has no nanosleep, so the
// runtime's sleep is the best available.
func preciseSleep(d time.Duration) { time.Sleep(d) }
