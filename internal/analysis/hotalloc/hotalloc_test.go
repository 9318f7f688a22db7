package hotalloc_test

import (
	"testing"

	"shmgpu/internal/analysis/analysistest"
	"shmgpu/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	tests := []struct {
		name string
		pkgs []string
	}{
		{name: "flagged categories and pruning", pkgs: []string{"hot"}},
		{name: "accepted allocation-free tick", pkgs: []string{"hotok"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			analysistest.Run(t, "testdata", hotalloc.Analyzer, tt.pkgs...)
		})
	}
}
