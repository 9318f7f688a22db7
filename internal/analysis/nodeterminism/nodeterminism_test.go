package nodeterminism_test

import (
	"testing"

	"shmgpu/internal/analysis/analysistest"
	"shmgpu/internal/analysis/nodeterminism"
)

func TestNodeterminism(t *testing.T) {
	tests := []struct {
		name string
		pkgs []string
	}{
		{name: "restricted core package", pkgs: []string{"core/internal/gpu"}},
		{name: "unrestricted harness package", pkgs: []string{"harness"}},
		{name: "both together", pkgs: []string{"core/internal/gpu", "harness"}},
		{name: "restricted package outside the cycle loop", pkgs: []string{"core/internal/pool"}},
		{name: "cycle-loop package outside the core", pkgs: []string{"core/internal/flatmap"}},
		{name: "markers nothing reads", pkgs: []string{"markers"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			analysistest.Run(t, "testdata", nodeterminism.Analyzer, tt.pkgs...)
		})
	}
}
