// Package pool is a fixture for a restricted core package the cycle loop
// does not run: its vetted fork/join workers may carry //shm:parallel-ok.
package pool

import "sync"

// spawnWorkers is the accepted pattern: fixed fork/join pool workers whose
// batches always join before model state is read, waived line-by-line with
// the written justification.
func spawnWorkers(work func()) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); work() }() //shm:parallel-ok — fixed pool worker; every batch joins before Run returns
	}
	wg.Wait()
}

func adHoc(work func()) {
	go work() // want `goroutine spawned in deterministic core package core/internal/pool`
}

// The marker waives nothing on a line without a go statement.
//
//shm:parallel-ok // want `//shm:parallel-ok marker is read by no analyzer`
func idle() {}
