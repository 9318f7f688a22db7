// Package flatmap is a fixture for a package the cycle loop runs that is
// outside the restricted core: the synchronization rule applies, the
// determinism rules do not.
package flatmap

import (
	"sync"        // want `import of sync in cycle-loop package core/internal/flatmap`
	"sync/atomic" // want `import of sync/atomic in cycle-loop package`
	"time"
)

var (
	mu sync.Mutex
	n  atomic.Int64
)

func locked() {
	mu.Lock()
	mu.Unlock()
	n.Add(1)
}

func channels(ch chan int) int {
	ch <- 1   // want `channel send in cycle-loop package`
	v := <-ch // want `channel receive in cycle-loop package`
	select {  // want `channel select in cycle-loop package`
	case ch <- v: // want `channel send in cycle-loop package`
	default:
	}
	for x := range ch { // want `channel range in cycle-loop package`
		v += x
	}
	close(ch) // want `channel close in cycle-loop package`
	return v
}

func spawn(f func()) {
	go f() // want `goroutine spawned in cycle-loop package`
}

// Wall-clock time and map ranges are the restricted core's rules.
func unrestricted(m map[int]int) int64 {
	for range m {
	}
	return time.Now().Unix()
}
