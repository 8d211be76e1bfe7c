// Package phasepurity is the phasepurity analyzer's fixture: a
// miniature worker-pool engine whose parallel phase commits every sin
// the analyzer bans, plus the sanctioned shapes it must leave alone.
package phasepurity

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// hits is package-level shared state no worker may touch.
var hits int

//lint:parallel-root dangling directive // want "parallel-root directive does not precede a function body"
var marker = 1

type engine struct {
	mu    sync.Mutex
	data  map[int]int
	acc   []int
	ch    chan int
	total int
}

// runPool mimics a pool driver such as roadnet's region pool: fn(i)
// runs on worker goroutines, so everything reachable from the marked
// closure is inside the parallel phase.
func (e *engine) runPool(n int, fn func(int)) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		//lint:parallel-root fixture worker pool
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func (e *engine) tick() {
	e.runPool(4, func(i int) {
		e.work(i)
		e.total = i // want "write to e, captured from outside the parallel phase"
	})
}

func (e *engine) work(i int) {
	_ = time.Now()          // want "time.Now reads the wall clock inside the parallel phase"
	_ = rand.Intn(10)       // want "rand.Intn draws from the global RNG inside the parallel phase"
	for k := range e.data { // want "map iteration order reaches ordered state inside the parallel phase"
		e.acc = append(e.acc, k)
	}
	hits++        // want "write to package-level hits inside the parallel phase"
	e.mu.Lock()   // want "Mutex.Lock call inside the parallel phase"
	e.mu.Unlock() // want "Mutex.Unlock call inside the parallel phase"
	e.notify()
	_ = e.keys()
	_ = e.gather(i)
	_ = wallNow()
	e.commitLocked()
	e.ignored()
}

func (e *engine) notify() {
	e.ch <- 1 // want "channel send inside the parallel phase"
}

// keys is the extract-and-sort idiom: exempt from the map-range rule.
func (e *engine) keys() []int {
	var ks []int
	for k := range e.data {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// gather captures out inside the phase: a worker-local accumulation the
// analyzer must not flag.
func (e *engine) gather(i int) []int {
	var out []int
	e.visit(i, func(v int) {
		out = append(out, v)
	})
	return out
}

func (e *engine) visit(i int, f func(int)) { f(i) }

// wallNow is sanctioned by the fixture's config, like the real
// repository's audited wall-clock shim.
func wallNow() time.Time { return time.Now() }

// commitLocked is a helper the root reaches: only the marked root
// itself may synchronize.
func (e *engine) commitLocked() {
	e.mu.Lock()   // want "Mutex.Lock call inside the parallel phase"
	e.mu.Unlock() // want "Mutex.Unlock call inside the parallel phase"
}

// ignored shows a local suppression of the program analyzer.
func (e *engine) ignored() {
	//lint:ignore phasepurity audited wall-clock read for the fixture
	_ = time.Now()
}
