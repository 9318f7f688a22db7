// Command shmfuzz drives differential-fuzzing campaigns over the
// simulator: it generates random valid configurations and synthetic
// workloads (internal/fuzz), runs each cell under multiple cycle-skipping
// modes and secure-memory schemes, and checks the oracle battery
// (fast-forward equivalence, determinism, sanitizer transparency,
// detector ablation, cross-scheme metamorphic orderings, conservation
// laws). Failing cells are shrunk to minimal replayable JSON repros and
// written to the corpus directory. With the ops-plane flags a campaign is
// observable live: streaming progress, per-cell spans, a (dump-only) stall
// watchdog, and an embedded HTTP endpoint.
//
// Usage:
//
//	shmfuzz -duration 60s -seed 1 -corpus testdata/fuzz/corpus
//	shmfuzz -cells 50 -seed 7
//	shmfuzz -cells 50 -progress -ops-listen :8080
//	shmfuzz -replay finding.json
//
// Exit codes: 0 when every oracle stayed green, 1 when a campaign found
// violations (findings written if -corpus is set), 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"shmgpu/internal/fuzz"
	"shmgpu/internal/obs"
	"shmgpu/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shmfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		duration = fs.Duration("duration", 0, "campaign wall-clock budget (e.g. 60s, 10m)")
		cells    = fs.Int("cells", 0, "campaign cell-count budget (0 = unbounded; set -duration instead)")
		seed     = fs.Int64("seed", 1, "campaign master seed (cell i derives from seed+i)")
		corpus   = fs.String("corpus", "", "directory for finding-NNN.json repros and manifest.json")
		budget   = fs.Int("shrink-budget", 0, "max oracle evaluations per shrink (0 = default)")
		replay   = fs.String("replay", "", "replay one case/finding JSON file instead of running a campaign")
		quiet    = fs.Bool("q", false, "suppress per-finding progress lines and informational logging")
		verbose  = fs.Bool("v", false, "verbose logging")
	)
	var opsFlags obs.Flags
	opsFlags.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: shmfuzz [flags]\n\nRuns differential-fuzzing campaigns over the simulator.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log := obs.NewLogger(stderr, "shmfuzz", obs.LevelFromFlags(*quiet, *verbose))
	if fs.NArg() != 0 {
		log.Errorf("unexpected arguments %v", fs.Args())
		fs.Usage()
		return 2
	}

	if *replay != "" {
		return replayCase(*replay, stdout, log)
	}
	if *duration <= 0 && *cells <= 0 {
		log.Errorf("set -duration and/or -cells to bound the campaign")
		fs.Usage()
		return 2
	}
	if opsFlags.WatchdogCancel {
		// A half-run oracle battery reports nonsense diffs, so fuzz cells
		// are never cancelled; the watchdog still dumps diagnostics.
		log.Infof("-watchdog-cancel is ignored for fuzzing campaigns (the watchdog is dump-only)")
		opsFlags.WatchdogCancel = false
	}

	plane, shutdown, err := opsFlags.Start("shmfuzz", *cells, stderr, log)
	if err != nil {
		log.Errorf("%v", err)
		return 2
	}

	opts := fuzz.CampaignOptions{
		Seed:         *seed,
		Duration:     *duration,
		MaxCells:     *cells,
		CorpusDir:    *corpus,
		ShrinkBudget: *budget,
		Ops:          plane,
	}
	if !*quiet {
		opts.Log = stdout
	}
	res, err := fuzz.RunCampaign(opts)
	sdErr := shutdown(telemetry.Manifest{
		Tool:          "shmfuzz",
		SchemaVersion: telemetry.SchemaVersion,
		Seed:          *seed,
	})
	if err != nil {
		log.Errorf("%v", err)
		return 2
	}
	if sdErr != nil {
		log.Errorf("%v", sdErr)
	}
	fmt.Fprintf(stdout, "shmfuzz: seed=%d cells=%d findings=%d invalid=%d elapsed=%s\n",
		res.Seed, res.Cells, len(res.Findings), res.InvalidCells,
		(time.Duration(res.ElapsedMillis) * time.Millisecond).String())
	if res.Clean() {
		fmt.Fprintln(stdout, "shmfuzz: all oracles green")
		return 0
	}
	for _, f := range res.Findings {
		fmt.Fprintf(stdout, "finding: cell %d violates %v\n", f.Index, f.Oracles)
	}
	if *corpus != "" {
		fmt.Fprintf(stdout, "shmfuzz: shrunk repros written to %s\n", *corpus)
	}
	return 1
}

// replayCase re-runs the oracle battery on a saved case. Finding files
// (which wrap the case) are accepted too, preferring the shrunk repro.
func replayCase(path string, stdout io.Writer, log *obs.Logger) int {
	c, err := loadReplay(path)
	if err != nil {
		log.Errorf("%v", err)
		return 2
	}
	vs, err := fuzz.CheckCase(c)
	if err != nil {
		log.Errorf("invalid case: %v", err)
		return 2
	}
	if len(vs) == 0 {
		fmt.Fprintf(stdout, "shmfuzz: %s: all oracles green\n", path)
		return 0
	}
	for _, v := range vs {
		fmt.Fprintf(stdout, "%s\n", v)
	}
	return 1
}

// loadReplay reads either a bare Case file or a campaign Finding file,
// whose "shrunk" cell it replays.
func loadReplay(path string) (fuzz.Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return fuzz.Case{}, err
	}
	var f struct {
		Shrunk json.RawMessage `json:"shrunk"`
	}
	var c fuzz.Case
	if err = json.Unmarshal(data, &f); err == nil {
		if f.Shrunk != nil {
			data = f.Shrunk
		}
		err = json.Unmarshal(data, &c)
	}
	if err != nil {
		return fuzz.Case{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return c, nil
}
