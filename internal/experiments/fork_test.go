package experiments

import (
	"testing"

	"shmgpu/internal/scheme"
)

// TestRunForkedFamilyPrimesCache: a fork family's sequential fast-forward
// variant must land in the runner's figure cache and match the result a
// from-scratch Run would produce — the contract that lets figure sweeps
// share a fork family's warmup.
func TestRunForkedFamilyPrimesCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := quickRunner()
	scratch := NewRunner(QuickConfig(), []string{"bfs"}).Run("bfs", scheme.SHM)

	specs := []ForkSpec{{}, {DisableFastForward: true}}
	results, err := r.RunForkedFamily("bfs", scheme.SHM, scratch.Cycles/4, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i := range specs {
		if results[i].Cycles != scratch.Cycles || results[i].Instructions != scratch.Instructions {
			t.Errorf("spec %d: forked run (%d cycles, %d insts) diverges from scratch (%d cycles, %d insts)",
				i, results[i].Cycles, results[i].Instructions, scratch.Cycles, scratch.Instructions)
		}
	}

	r.mu.Lock()
	cached, ok := r.cache[key("bfs", scheme.SHM, false)]
	r.mu.Unlock()
	if !ok {
		t.Fatal("zero ForkSpec variant did not prime the figure cache")
	}
	if cached.Cycles != scratch.Cycles {
		t.Errorf("cached result has %d cycles, scratch %d", cached.Cycles, scratch.Cycles)
	}
}
