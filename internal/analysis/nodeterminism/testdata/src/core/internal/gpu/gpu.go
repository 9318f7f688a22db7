// Package gpu is a fixture standing in for a deterministic-core package
// (its import path ends in internal/gpu, putting it in the restricted set)
// that the cycle loop runs (putting it in the cycle-loop set too).
package gpu

import (
	"math/rand"
	"time"
)

func clock() int64 {
	t := time.Now() // want `call to time\.Now in deterministic core`
	return t.Unix()
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `call to time\.Since in deterministic core`
}

func globalDraw() int {
	return rand.Intn(8) // want `call to global-source rand\.Intn in deterministic core`
}

// seededDraw is the accepted pattern: an explicit source from a run seed.
func seededDraw(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(8)
}

func sumMap(m map[int]int) int {
	total := 0
	for _, v := range m { // want `range over map in deterministic core`
		total += v
	}
	return total
}

// sumMapAllowed is the accepted pattern: the annotation states the loop is
// order-insensitive.
func sumMapAllowed(m map[int]int) int {
	total := 0
	for _, v := range m { //shmlint:allow maprange — commutative sum
		total += v
	}
	return total
}

// sumSlice ranges over a slice, which is ordered and always fine.
func sumSlice(s []int) int {
	total := 0
	for _, v := range s {
		total += v
	}
	return total
}

// In a package the cycle loop runs, a goroutine or a channel operation is
// flagged whatever its comment says.
func spawn(done chan struct{}) {
	go func() { // want `goroutine spawned in cycle-loop package core/internal/gpu`
		close(done) // want `channel close in cycle-loop package`
	}()
}

func spawnWorkers(work func()) {
	go work() //shm:parallel-ok — fixed pool worker // want `goroutine spawned in cycle-loop package` `//shm:parallel-ok marker is read by no analyzer`
}

// grow sits in the cycle loop; the marker is not read.
func grow(xs []int) []int {
	return append(xs, 1) //shm:amortized growth // want `//shm:amortized marker is read by no analyzer`
}
