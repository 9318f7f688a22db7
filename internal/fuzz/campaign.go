package fuzz

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"shmgpu/internal/obs"
)

// CampaignOptions configures a timed fuzzing campaign.
type CampaignOptions struct {
	// Seed is the campaign master seed. Cell i is generated from
	// rand.NewSource(Seed + i), so any cell is regenerable from the
	// campaign seed and its index alone — a finding report needs no
	// other state to replay.
	Seed int64
	// Duration bounds the campaign wall-clock time; no new cell starts
	// after the deadline. Zero means no time bound (MaxCells must be set).
	Duration time.Duration
	// MaxCells bounds the number of generated cells. Zero means no count
	// bound (Duration must be set).
	MaxCells int
	// CorpusDir, when set, receives one finding-NNN.json per failing cell
	// and a manifest.json summary. The directory is created if missing.
	CorpusDir string
	// ShrinkBudget caps predicate evaluations per finding (0 = default).
	ShrinkBudget int
	// Check tunes the oracle tolerances (zero value = defaults).
	Check CheckOptions
	// Log, when set, receives one progress line per finding and a
	// campaign summary line.
	Log io.Writer
	// Ops, when set, is the live observability plane: every cell gets a
	// span and a heartbeat, so -ops-listen/-progress/-watchdog work for
	// fuzzing campaigns exactly as for sweeps. The fuzz watchdog is
	// dump-only (cells are never cancelled — a half-run oracle battery
	// would report nonsense diffs). Nil disables all of it.
	Ops *obs.Plane
}

// Finding is one failing cell of a campaign, with its shrunk repro.
type Finding struct {
	// Index is the cell's position in the campaign; with CampaignSeed it
	// fully determines the original case.
	Index int `json:"index"`
	// CampaignSeed is the campaign master seed the cell derives from.
	CampaignSeed int64 `json:"campaign_seed"`
	// Oracles lists the distinct violated oracle names.
	Oracles []string `json:"oracles"`
	// Violations are the original cell's oracle failures.
	Violations []Violation `json:"violations"`
	// Case is the generated cell as found.
	Case Case `json:"case"`
	// Shrunk is the minimized repro (still failing the same oracles).
	Shrunk Case `json:"shrunk"`
	// ShrunkViolations are the minimized repro's failures.
	ShrunkViolations []Violation `json:"shrunk_violations"`
	// ShrinkAttempts counts oracle-battery evaluations spent shrinking.
	ShrinkAttempts int `json:"shrink_attempts"`
}

// CampaignResult summarizes one campaign; it is also the schema of the
// corpus directory's manifest.json.
type CampaignResult struct {
	Seed          int64     `json:"seed"`
	Cells         int       `json:"cells"`
	InvalidCells  int       `json:"invalid_cells"`
	Findings      []Finding `json:"findings,omitempty"`
	ElapsedMillis int64     `json:"elapsed_ms"`
}

// Clean reports whether every cell passed every oracle and no generated
// cell was invalid.
func (r CampaignResult) Clean() bool {
	return len(r.Findings) == 0 && r.InvalidCells == 0
}

// CellCase regenerates campaign cell i from the master seed. Campaigns and
// replays share this so finding reports stay replayable by (seed, index).
func CellCase(campaignSeed int64, i int) Case {
	c := Generate(rand.New(rand.NewSource(campaignSeed + int64(i))))
	c.Workload.BenchName = fmt.Sprintf("cell-%d-%d", campaignSeed, i)
	return c
}

func oracleNames(vs []Violation) []string {
	seen := make(map[string]bool)
	var names []string
	for _, v := range vs {
		if !seen[v.Oracle] {
			seen[v.Oracle] = true
			names = append(names, v.Oracle)
		}
	}
	return names
}

// RunCampaign generates and checks cells until the time or count bound is
// hit, shrinking every failing cell to a minimal repro. It returns an
// error only for harness problems (unwritable corpus dir, no bound set);
// oracle failures are data, reported in the result.
func RunCampaign(opts CampaignOptions) (CampaignResult, error) {
	if opts.Duration <= 0 && opts.MaxCells <= 0 {
		return CampaignResult{}, fmt.Errorf("fuzz: campaign needs a duration or a cell-count bound")
	}
	if opts.CorpusDir != "" {
		if err := os.MkdirAll(opts.CorpusDir, 0o755); err != nil {
			return CampaignResult{}, err
		}
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	check := opts.Check
	if check == (CheckOptions{}) {
		check = DefaultCheckOptions()
	}

	res := CampaignResult{Seed: opts.Seed}
	start := time.Now()
	deadline := time.Time{}
	if opts.Duration > 0 {
		deadline = start.Add(opts.Duration)
	}
	for i := 0; ; i++ {
		if opts.MaxCells > 0 && i >= opts.MaxCells {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		c := CellCase(opts.Seed, i)
		res.Cells++
		orun := opts.Ops.BeginRun(c.Workload.BenchName)
		check.Obs = orun
		vs, err := CheckCaseOpts(c, check)
		if err != nil {
			// The generator must only emit valid cells; an invalid one is
			// itself a finding about the generator.
			res.InvalidCells++
			logf("cell %d: INVALID: %v", i, err)
			orun.Done(orun.Heartbeat().Load(), false)
			continue
		}
		if len(vs) == 0 {
			orun.Done(orun.Heartbeat().Load(), true)
			continue
		}
		orun.Span().Annotate("violations", fmt.Sprint(len(vs)))
		oracles := oracleNames(vs)
		logf("cell %d: %d violation(s) [%v], shrinking...", i, len(vs), oracles)
		shrunk, attempts := Shrink(c, OracleFails(check, oracles...), opts.ShrinkBudget)
		svs, _ := CheckCaseOpts(shrunk, check)
		f := Finding{
			Index:            i,
			CampaignSeed:     opts.Seed,
			Oracles:          oracles,
			Violations:       vs,
			Case:             c,
			Shrunk:           shrunk,
			ShrunkViolations: svs,
			ShrinkAttempts:   attempts,
		}
		res.Findings = append(res.Findings, f)
		if opts.CorpusDir != "" {
			if err := writeFinding(opts.CorpusDir, len(res.Findings)-1, f); err != nil {
				return res, err
			}
		}
		logf("cell %d: shrunk in %d attempts -> %s", i, attempts, shrunkSummary(shrunk))
		orun.Done(orun.Heartbeat().Load(), false)
	}
	res.ElapsedMillis = time.Since(start).Milliseconds()
	if opts.CorpusDir != "" {
		if err := writeManifest(opts.CorpusDir, res); err != nil {
			return res, err
		}
	}
	logf("campaign: %d cells in %dms, %d finding(s), %d invalid",
		res.Cells, res.ElapsedMillis, len(res.Findings), res.InvalidCells)
	return res, nil
}

func shrunkSummary(c Case) string {
	data, err := json.Marshal(c)
	if err != nil {
		return err.Error()
	}
	return truncate(string(data), 200)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func writeFinding(dir string, n int, f Finding) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("finding-%03d.json", n)), append(data, '\n'), 0o644)
}

func writeManifest(dir string, res CampaignResult) error {
	// The manifest holds only the summary; per-finding files carry the
	// cases themselves.
	slim := res
	slim.Findings = nil
	type manifest struct {
		CampaignResult
		FindingCount int      `json:"finding_count"`
		Oracles      []string `json:"violated_oracles,omitempty"`
	}
	m := manifest{CampaignResult: slim, FindingCount: len(res.Findings)}
	var all []Violation
	for _, f := range res.Findings {
		all = append(all, f.Violations...)
	}
	m.Oracles = oracleNames(all)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), append(data, '\n'), 0o644)
}
