package secmem_test

import (
	"slices"
	"strings"
	"testing"

	"shmgpu/internal/scheme"
	"shmgpu/internal/secmem"
	"shmgpu/internal/stats"
)

// TestNewMEEBuildsOnlyTheDesignsMechanisms: each Table VIII design gets
// exactly the mechanisms it has, and the accuracy harnesses wrap only the
// predictors that exist. The table is written out per design rather than
// derived from the option flags, so it checks NewMEE against the paper's
// designs, not against itself.
func TestNewMEEBuildsOnlyTheDesignsMechanisms(t *testing.T) {
	want := map[string]string{
		"Baseline":        "",
		"Naive":           "caches",
		"Common_ctr":      "caches",
		"PSSM":            "caches",
		"PSSM_cctr":       "caches",
		"SHM_readOnly":    "caches roPred",
		"SHM":             "caches roPred stPred mats",
		"SHM_cctr":        "caches roPred stPred mats",
		"SHM_vL2":         "caches roPred stPred mats",
		"SHM_upper_bound": "caches roPred oracles",
	}
	for _, sch := range scheme.All() {
		mechs, ok := want[sch.Name]
		if !ok {
			t.Errorf("%s: no expected mechanisms listed", sch.Name)
			continue
		}
		for _, acc := range []bool{false, true} {
			opts := sch.Options
			opts.TrackAccuracy = acc
			m := secmem.NewMEE(secmem.DefaultTuning().Config(opts, 0, 12, 1<<20), nil, new(stats.Registry))
			exp := strings.Fields(mechs)
			if acc && slices.Contains(exp, "roPred") {
				exp = append(exp, "roAcc")
			}
			if acc && slices.Contains(exp, "stPred") {
				exp = append(exp, "stAcc")
			}
			if got := secmem.Mechanisms(m); !slices.Equal(got, exp) {
				t.Errorf("%s (TrackAccuracy=%v): NewMEE built %v, want %v", sch.Name, acc, got, exp)
			}
		}
	}
}
