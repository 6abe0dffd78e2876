// Package goroutinecleanup is the golden fixture for the
// goroutinecleanup analyzer: each function exercises one accepted join
// pattern or one violation (`// want` lines).
package goroutinecleanup

import "sync"

func work() {}

// leak spawns a function literal with no join of any kind.
func leak() {
	go func() {}() // want `goroutine in leak has no reachable join`
}

// leakNamed spawns a named function; the done-channel heuristic only
// inspects function literals, so this needs a Wait or a suppression.
func leakNamed() {
	go work() // want `goroutine in leakNamed has no reachable join`
}

// joinedByWaitGroup is the simplest accepted shape: a local WaitGroup
// Waited in the same function.
func joinedByWaitGroup() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// joinedByClose is the done-channel pattern: the goroutine closes a
// channel the spawner receives from (core.GenerateStore's shape).
func joinedByClose() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	<-done
}

// joinedBySend: the goroutine sends its result on a channel the spawner
// drains.
func joinedBySend() int {
	res := make(chan int, 1)
	go func() {
		res <- 1
	}()
	return <-res
}

// joinedByRange: receiving via range counts as a receive.
func joinedByRange() int {
	out := make(chan int)
	go func() {
		defer close(out)
		out <- 1
	}()
	sum := 0
	for v := range out {
		sum += v
	}
	return sum
}

// pool is the spawn/shutdown split: spawn tracks goroutines in a WaitGroup
// field, a separate shutdown method Waits on it, and the package
// references shutdown (registering it as a cleanup).
type pool struct {
	workers sync.WaitGroup
	stop    chan struct{}
}

func (p *pool) spawn() {
	p.workers.Add(1)
	go func() {
		defer p.workers.Done()
		<-p.stop
	}()
}

func (p *pool) shutdown() {
	close(p.stop)
	p.workers.Wait()
}

// usePool registers the join, making spawn's goroutine accountable.
func usePool() func() {
	p := &pool{stop: make(chan struct{})}
	p.spawn()
	return p.shutdown
}

// suppressed documents a reviewed exception.
func suppressed() {
	// sp2b:leaks=ok fixture: pretend this goroutine is bounded by process lifetime
	go func() {
		work()
	}()
}
