// Package suite enumerates the repository's lint analyzers in the order
// they run. cmd/shmlint and any future drivers consume this list, so adding
// an analyzer here is all it takes to put it in the gate.
package suite

import (
	"shmgpu/internal/analysis"
	"shmgpu/internal/analysis/counterhygiene"
	"shmgpu/internal/analysis/hotalloc"
	"shmgpu/internal/analysis/nodeterminism"
	"shmgpu/internal/analysis/probeguard"
	"shmgpu/internal/analysis/syncfree"
	"shmgpu/internal/analysis/unitcheck"
)

// All returns every analyzer in the shmlint suite. The flow-sensitive
// analyzers (hotalloc, syncfree) report only from their
// Finish hooks, so they surface findings in standalone whole-tree runs
// and stay silent under the per-package vet protocol.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nodeterminism.Analyzer,
		counterhygiene.Analyzer,
		probeguard.Analyzer,
		unitcheck.Analyzer,
		hotalloc.Analyzer,
		syncfree.Analyzer,
	}
}
