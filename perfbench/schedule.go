package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// arrival is one open-loop request: when it is due, relative to the start
// of the measured window, and which color it targets.
type arrival struct {
	due   time.Duration
	color int // index into the workload's color list
}

// poissonSchedule returns the arrivals of a Poisson process of the given
// rate over span, alternating between ncolors colors. The same seed always
// gives the same schedule.
func poissonSchedule(seed int64, rate float64, span time.Duration, ncolors int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := time.Duration(0)
	for i := 0; ; i++ {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= span {
			return out
		}
		out = append(out, arrival{due: t, color: i % ncolors})
	}
}

// sleepUntil blocks until the wall clock reaches t. Go's timers wake about
// a millisecond late on Linux, as the netpoller waits in whole
// milliseconds, which would show up as generator lag; nanosleep on a
// locked thread wakes within tens of microseconds. The caller must hold
// runtime.LockOSThread.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			runtime.Gosched()
		}
	}
}
