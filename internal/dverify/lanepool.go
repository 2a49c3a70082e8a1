package dverify

import (
	"sync"

	"tightcps/internal/verify"
)

// laneCrew is the persistent lane-goroutine pool behind a parallel worker's
// expansion fan-out. The old fan-out spawned len(lanes) goroutines per chunk
// with per-call atomics and closures — several heap allocations per chunk,
// hundreds of chunks per run, which is exactly the multi-lane allocation
// leak the bench gate pins (VerifyS1Loopback2x4 at ~12k allocs/op against
// ~80 for one lane). The crew spawns its goroutines once, parks them on
// per-lane wake channels, and hands tasks over through state the owner
// keeps on itself: a fan-out is wg.Add + n channel sends + wg.Wait, nothing
// else.
//
// Ownership: the orchestrator writes the task parameters and resets the
// shared atomics before waking anyone (the channel send publishes them);
// lanes read the task through the body closure and write only lane-private
// staging plus the designated shared atomics; wg.Wait publishes the lanes'
// staging back. Work is claimed from the embedded WorkQueue — each lane
// owns a partition and steals from the busiest peer when it drains.
//
// stop() parks nothing: it closes the wake channels and the goroutines
// exit. The owning worker stops the crew at session teardown (mesh
// shutdown) and ensure() respawns it lazily on the next parallel
// fan-out, so a standing worker pays one spawn set per session, not per
// chunk.
type laneCrew struct {
	body    func(lane int, ln *meshLane) // set once by the owner
	wake    []chan struct{}
	wg      sync.WaitGroup
	wq      verify.WorkQueue
	running bool
}

// ensure spawns the lane goroutines if they are not already parked on their
// wake channels. Orchestrator goroutine only.
func (c *laneCrew) ensure(lanes []*meshLane) {
	if c.running {
		return
	}
	if len(c.wake) != len(lanes) {
		c.wake = make([]chan struct{}, len(lanes))
	}
	for i := range lanes {
		ch := make(chan struct{}, 1)
		c.wake[i] = ch
		go func(lane int, ln *meshLane, ch chan struct{}) {
			for range ch {
				c.body(lane, ln)
				c.wg.Done()
			}
		}(i, lanes[i], ch)
	}
	c.running = true
}

// fan runs the current task on every lane over items work units and
// blocks until all of them finish. Orchestrator goroutine only.
func (c *laneCrew) fan(items, chunk int) {
	c.wq.Reset(items, len(c.wake), chunk)
	c.wg.Add(len(c.wake))
	for _, ch := range c.wake {
		ch <- struct{}{}
	}
	c.wg.Wait()
}

// stop terminates the lane goroutines. Idempotent; ensure() respawns.
func (c *laneCrew) stop() {
	if !c.running {
		return
	}
	for _, ch := range c.wake {
		close(ch)
	}
	c.running = false
}
