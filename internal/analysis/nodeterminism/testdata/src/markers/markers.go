// Package markers is a fixture for //shm: markers outside the core: no
// analyzer reads one here, so each is reported. A marker quoted in prose,
// like this //shm:amortized, is not a marker.
package markers

func grow(xs []int) []int {
	return append(xs, 1) //shm:amortized growth // want `//shm:amortized marker is read by no analyzer`
}

// tick is not a root of anything any more.
//
//shm:entry // want `//shm:entry marker is read by no analyzer`
func tick() {}

func background(done chan struct{}) {
	go close(done) //shm:parallel-ok joined by the caller // want `//shm:parallel-ok marker is read by no analyzer`
}
