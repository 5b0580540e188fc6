package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// dueAt is when operation i of an open loop at rate ops/s is due,
// relative to the loop's start.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// loopResult is what one open-loop phase leaves behind: each sender's
// operations in send order and, when the senders were pinned to
// threads, the CPU those threads used.
type loopResult struct {
	T0        time.Time
	PerSender [][]Op
	SenderCPU time.Duration
}

// roundRobin assigns operations 0..n-1 to senders in turn.
func roundRobin(n, senders int) [][]int {
	out := make([][]int, senders)
	for i := 0; i < n; i++ {
		out[i%senders] = append(out[i%senders], i)
	}
	return out
}

// beforeDeadline is the usual start rule: an operation may start only
// before the phase deadline.
func beforeDeadline(deadline time.Duration) func(i int, now time.Duration) bool {
	return func(_ int, now time.Duration) bool { return now < deadline }
}

// runOpenLoop runs an open loop: sender s runs the operations in
// assign[s], in order, operation i due at due(i) after the start. A
// sender sleeps once until its next operation is due and then sends
// everything that is due back to back, so a slow answer delays the
// sender's later operations (and due-time accounting charges the delay
// to them) instead of hiding it. An operation for which canStart says
// no is left unsent. do performs operation i and reports whether it
// failed; its return is the operation's End. With pin, each sender is
// locked to an OS thread so its CPU time can be read back; that costs a
// thread hand-off whenever a sender wakes, so only senders that rarely
// block on the system (the in-process ingest clients) are pinned.
func runOpenLoop(assign [][]int, due func(i int) time.Duration, canStart func(i int, now time.Duration) bool, pin bool, do func(sender, i int) (failed bool)) loopResult {
	senders := len(assign)
	res := loopResult{PerSender: make([][]Op, senders)}
	cpu := make([]time.Duration, senders)
	var wg sync.WaitGroup
	res.T0 = time.Now().Add(2 * time.Millisecond)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var cpu0 time.Duration
			if pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				cpu0 = threadCPU()
			}
			ops := make([]Op, 0, len(assign[s]))
			for _, i := range assign[s] {
				d := due(i)
				now := time.Since(res.T0)
				if !canStart(i, now) {
					ops = append(ops, Op{I: i, Due: d})
					continue
				}
				if d > now {
					time.Sleep(d - now)
				}
				start := time.Since(res.T0)
				failed := do(s, i)
				ops = append(ops, Op{I: i, Due: d, Start: start, End: time.Since(res.T0), Sent: true, Failed: failed})
			}
			if pin {
				cpu[s] = threadCPU() - cpu0
			}
			res.PerSender[s] = ops
		}(s)
	}
	wg.Wait()
	for _, c := range cpu {
		res.SenderCPU += c
	}
	return res
}

// accounting folds every sender's operations into one Accounting.
func (r loopResult) accounting() Accounting {
	var acc Accounting
	for _, ops := range r.PerSender {
		account(&acc, ops)
	}
	return acc
}

// threadCPU returns the user+system CPU time of the calling OS thread.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD on Linux
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU returns the user+system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
