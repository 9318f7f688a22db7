// Package stats provides the counter registry and traffic accounting used by
// every component of the simulator: instruction/cycle counts, per-class DRAM
// byte counters (regular data vs. the different classes of security
// metadata), cache hit/miss counters, and predictor-accuracy breakdowns.
//
// All counters are plain uint64s behind small structs; the simulator is
// single-goroutine per run, so no synchronization is needed on the hot path.
package stats

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"shmgpu/internal/invariant"
)

// TrafficClass labels a DRAM transfer with the purpose of the bytes moved,
// so the bandwidth-overhead breakdown of paper Fig. 14 can be reconstructed.
type TrafficClass uint8

const (
	// TrafficData is regular application data.
	TrafficData TrafficClass = iota
	// TrafficCounter is encryption-counter metadata.
	TrafficCounter
	// TrafficMAC is per-block or per-chunk MAC metadata.
	TrafficMAC
	// TrafficBMT is Bonsai Merkle Tree node metadata.
	TrafficBMT
	// TrafficMispredict is extra data/metadata re-fetch traffic caused by
	// detector mispredictions (Tables III/IV of the paper).
	TrafficMispredict
	numTrafficClasses
)

// NumTrafficClasses is the number of traffic classes.
const NumTrafficClasses = int(numTrafficClasses)

var trafficNames = [...]string{
	TrafficData:       "data",
	TrafficCounter:    "counter",
	TrafficMAC:        "mac",
	TrafficBMT:        "bmt",
	TrafficMispredict: "mispredict",
}

// String returns the class name used in reports.
func (c TrafficClass) String() string {
	if int(c) < len(trafficNames) {
		return trafficNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Traffic accumulates DRAM bytes moved per class and direction.
type Traffic struct {
	ReadBytes  [NumTrafficClasses]uint64
	WriteBytes [NumTrafficClasses]uint64
}

// AddRead records n bytes read from DRAM for class c.
func (t *Traffic) AddRead(c TrafficClass, n uint64) { t.ReadBytes[c] += n }

// AddWrite records n bytes written to DRAM for class c.
func (t *Traffic) AddWrite(c TrafficClass, n uint64) { t.WriteBytes[c] += n }

// Bytes returns total bytes (read+write) for class c.
func (t *Traffic) Bytes(c TrafficClass) uint64 { return t.ReadBytes[c] + t.WriteBytes[c] }

// DataBytes returns total regular-data bytes.
func (t *Traffic) DataBytes() uint64 { return t.Bytes(TrafficData) }

// MetadataBytes returns total security-metadata bytes, including
// misprediction overhead traffic.
func (t *Traffic) MetadataBytes() uint64 {
	var sum uint64
	for c := TrafficCounter; c < TrafficClass(NumTrafficClasses); c++ {
		sum += t.Bytes(c)
	}
	return sum
}

// TotalBytes returns all bytes moved.
func (t *Traffic) TotalBytes() uint64 { return t.DataBytes() + t.MetadataBytes() }

// OverheadRatio returns metadata bytes as a fraction of data bytes
// (the paper's "bandwidth overhead normalized to regular data bandwidth").
// Returns 0 when no data moved.
func (t *Traffic) OverheadRatio() float64 {
	d := t.DataBytes()
	if d == 0 {
		return 0
	}
	return float64(t.MetadataBytes()) / float64(d)
}

// Merge adds other into t.
func (t *Traffic) Merge(other *Traffic) {
	for i := 0; i < NumTrafficClasses; i++ {
		t.ReadBytes[i] += other.ReadBytes[i]
		t.WriteBytes[i] += other.WriteBytes[i]
	}
}

// CacheStats counts accesses to one cache.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	MSHRMerges uint64
	Evictions  uint64
	Writebacks uint64
	// SectorFills counts sectors fetched on misses.
	SectorFills uint64
}

// Accesses returns hits+misses.
func (c *CacheStats) Accesses() uint64 { return c.Hits + c.Misses }

// MissRate returns the miss ratio in [0,1]; 0 when no accesses.
func (c *CacheStats) MissRate() float64 {
	a := c.Accesses()
	if a == 0 {
		return 0
	}
	return float64(c.Misses) / float64(a)
}

// Merge adds other into c.
func (c *CacheStats) Merge(other *CacheStats) {
	c.Hits += other.Hits
	c.Misses += other.Misses
	c.MSHRMerges += other.MSHRMerges
	c.Evictions += other.Evictions
	c.Writebacks += other.Writebacks
	c.SectorFills += other.SectorFills
}

// PredictorOutcome classifies one prediction for the accuracy breakdowns of
// paper Figs. 10 and 11.
type PredictorOutcome uint8

const (
	// OutcomeCorrect is a correct prediction.
	OutcomeCorrect PredictorOutcome = iota
	// OutcomeMPInit is a misprediction caused by predictor initialization
	// (the default value had not been trained yet).
	OutcomeMPInit
	// OutcomeMPAliasing is a misprediction caused by distinct regions or
	// chunks sharing a predictor entry.
	OutcomeMPAliasing
	// OutcomeMPRuntimeRO is a misprediction caused by a runtime pattern
	// change in a read-only region (streaming predictor only).
	OutcomeMPRuntimeRO
	// OutcomeMPRuntimeNonRO is a misprediction caused by a runtime pattern
	// change in a non-read-only region (streaming predictor only).
	OutcomeMPRuntimeNonRO
	numOutcomes
)

// NumPredictorOutcomes is the number of outcome classes.
const NumPredictorOutcomes = int(numOutcomes)

var outcomeNames = [...]string{
	OutcomeCorrect:        "Correct-Prediction",
	OutcomeMPInit:         "MP_Init",
	OutcomeMPAliasing:     "MP_Aliasing",
	OutcomeMPRuntimeRO:    "MP_Runtime_Read_Only",
	OutcomeMPRuntimeNonRO: "MP_Runtime_Non_Read_Only",
}

// String returns the paper's label for the outcome class.
func (o PredictorOutcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// PredictorStats accumulates the prediction-outcome breakdown.
type PredictorStats struct {
	Counts [NumPredictorOutcomes]uint64
}

// Record adds one outcome.
func (p *PredictorStats) Record(o PredictorOutcome) { p.Counts[o]++ }

// Total returns the number of predictions recorded.
func (p *PredictorStats) Total() uint64 {
	var sum uint64
	for _, c := range p.Counts {
		sum += c
	}
	return sum
}

// Accuracy returns the fraction of correct predictions; 1 when empty.
func (p *PredictorStats) Accuracy() float64 {
	t := p.Total()
	if t == 0 {
		return 1
	}
	return float64(p.Counts[OutcomeCorrect]) / float64(t)
}

// Fraction returns the fraction of predictions with outcome o.
func (p *PredictorStats) Fraction(o PredictorOutcome) float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return float64(p.Counts[o]) / float64(t)
}

// Merge adds other into p.
func (p *PredictorStats) Merge(other *PredictorStats) {
	for i := range p.Counts {
		p.Counts[i] += other.Counts[i]
	}
}

// MaxCounters is the capacity of the counter table: the number of distinct
// counters the whole program may register. A Registry holds one value per
// slot, so it is a fixed array: an increment costs no allocation and no
// hashing, and the tick path may count freely.
const MaxCounters = 64

// Counter is the handle of one registered counter. Each owning package
// declares its handles once, as unexported package-level vars, so only that
// package can increment them:
//
//	var ctrDetStream = stats.NewCounter("det_stream")
type Counter uint8

// Name returns the name c was registered under.
func (c Counter) Name() string { return registered.names[c] }

// counterTable is a set of registered counter names: names in handle
// order, and the reverse index Registry.Get reads.
type counterTable struct {
	names  []string
	byName map[string]Counter
}

// registered is the program's counter table. NewCounter fills it during
// package initialization; afterwards it is only read.
var registered counterTable

// NewCounter registers name and returns its handle. Registry counters flow
// verbatim into the Prometheus export and into byte-stable reports, so
// NewCounter panics when name is not lowercase_snake, when it is already
// registered (two owners would silently merge unrelated quantities), or
// when the table already holds MaxCounters names. Call it from package
// initialization.
func NewCounter(name string) Counter { return registered.register(name) }

func (t *counterTable) register(name string) Counter {
	if !lowercaseSnake(name) {
		panic(fmt.Sprintf("stats: counter name %q is not lowercase_snake", name))
	}
	if _, dup := t.byName[name]; dup {
		panic(fmt.Sprintf("stats: counter %q is registered twice", name))
	}
	if len(t.names) == MaxCounters {
		panic(fmt.Sprintf("stats: counter table is full (%d names); cannot register %q", MaxCounters, name))
	}
	if t.byName == nil {
		t.byName = make(map[string]Counter)
	}
	c := Counter(len(t.names))
	t.names = append(t.names, name)
	t.byName[name] = c
	return c
}

// lowercaseSnake reports whether name matches [a-z][a-z0-9_]*.
func lowercaseSnake(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 1; i < len(name); i++ {
		if c := name[i]; (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// Registry holds a value for every registered counter, plus which counters
// it holds: a counter is present once it has been added to, even by 0, and
// only present counters are listed. The zero value is ready to use.
type Registry struct {
	vals    [MaxCounters]uint64
	present uint64 // bit c set when counter c is present
}

// Add increments counter c by n, reporting an invariant violation on
// uint64 wraparound when the sanitizer is enabled (a wrapped counter
// silently corrupts every derived ratio).
func (r *Registry) Add(c Counter, n uint64) {
	if invariant.Enabled() {
		if cur := r.vals[c]; cur > ^uint64(0)-n {
			invariant.Failf("counter-overflow", "registry", 0,
				"counter %s: %d + %d wraps uint64", c.Name(), cur, n)
		}
	}
	r.vals[c] += n
	r.present |= 1 << c
}

// Inc increments counter c by one.
func (r *Registry) Inc(c Counter) { r.Add(c, 1) }

// Get returns the value of the counter called name (0 if never touched or
// not registered).
func (r *Registry) Get(name string) uint64 {
	c, ok := registered.byName[name]
	if !ok {
		return 0
	}
	return r.vals[c]
}

// handles returns the present counters sorted by name.
func (r *Registry) handles() []Counter {
	hs := make([]Counter, 0, bits.OnesCount64(r.present))
	for m := r.present; m != 0; m &= m - 1 {
		hs = append(hs, Counter(bits.TrailingZeros64(m)))
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].Name() < hs[j].Name() })
	return hs
}

// Names returns the present counter names in sorted order.
func (r *Registry) Names() []string {
	hs := r.handles()
	names := make([]string, len(hs))
	for i, c := range hs {
		names[i] = c.Name()
	}
	return names
}

// Merge adds every counter present in other into r.
func (r *Registry) Merge(other *Registry) {
	for m := other.present; m != 0; m &= m - 1 {
		c := Counter(bits.TrailingZeros64(m))
		r.Add(c, other.vals[c])
	}
}

// CounterValue is one named counter in a deterministic Registry snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Snapshot returns every present counter sorted by name. All consumers
// that render or export the registry (reports, traces, metrics dumps) go
// through this so output is byte-stable across runs.
func (r *Registry) Snapshot() []CounterValue {
	hs := r.handles()
	out := make([]CounterValue, len(hs))
	for i, c := range hs {
		out[i] = CounterValue{Name: c.Name(), Value: r.vals[c]}
	}
	return out
}

// String renders the registry for debugging.
func (r *Registry) String() string {
	var b strings.Builder
	for _, cv := range r.Snapshot() {
		fmt.Fprintf(&b, "%s=%d ", cv.Name, cv.Value)
	}
	return strings.TrimSpace(b.String())
}
