// Package telemetry is the simulator-wide observability layer: typed probe
// events emitted from the choke points of the GPU core, the DRAM channels,
// the memory encryption engines and the detectors; an interval sampler that
// snapshots the aggregate counters into a timeline; log-bucketed latency and
// occupancy histograms with percentile accessors; and machine-readable
// exporters (JSONL event trace, Chrome trace-event JSON, Prometheus text).
//
// The layer is zero-overhead when disabled: every component holds a
// *Collector probe field that is nil by default, and every emit site is
// guarded by a nil check, so an uninstrumented run performs no calls, no
// allocations, and no branches beyond that single comparison.
package telemetry

// EventKind identifies the typed probe events the simulator emits.
type EventKind uint8

const (
	// EvSMIssue is one issued warp instruction. Class: 0 compute, 1 load,
	// 2 store. Unit is the SM id.
	EvSMIssue EventKind = iota
	// EvSMStall is one SM cycle in which no warp could issue while
	// unfinished warps were resident (includes scheduling bubbles).
	EvSMStall
	// EvL2Hit is an L2 read hit. Part/Unit identify the bank.
	EvL2Hit
	// EvL2Miss is an L2 read miss (new or merged). Part/Unit identify the
	// bank.
	EvL2Miss
	// EvDRAMEnqueue is a sector request entering a DRAM channel queue.
	// Value is the queue depth after insertion.
	EvDRAMEnqueue
	// EvDRAMService is a sector request issued to a DRAM bank. Value is
	// the total service latency in cycles (arrival to data transfer done);
	// Class is the stats.TrafficClass of the bytes moved.
	EvDRAMService
	// EvMEEAccept is a request accepted by an MEE from its L2 banks.
	// Class: 0 read, 1 write.
	EvMEEAccept
	// EvMEEReadDone is an MEE read response released to the L2. Value is
	// the submit-to-response latency in cycles (queueing + counter fetch +
	// OTP + data fetch).
	EvMEEReadDone
	// EvMetaFetch is one security-metadata sector request issued by an
	// MEE. Class is the stats.TrafficClass (counter/MAC/BMT/mispredict);
	// Unit: 0 read, 1 write.
	EvMetaFetch
	// EvPredictRO is one read-only prediction consulted on the encryption
	// path. Class: 1 predicted read-only, 0 not.
	EvPredictRO
	// EvPredictStream is one streaming prediction consulted on the MAC
	// path. Class: 1 predicted streaming, 0 not.
	EvPredictStream
	// EvDetection is a completed MAT monitoring phase applied to the
	// predictor. Class bit 0: detected streaming; bit 1: timed out; bit 2:
	// saw a write. Value is the number of accesses observed.
	EvDetection
	// EvMonitorArm is a memory access tracker armed on a chunk.
	EvMonitorArm
	// EvMonitorSkip is an access to an unmonitored chunk while every
	// tracker was busy.
	EvMonitorSkip
	// EvPageFault is a crossbar admission attempt that hit a
	// host-resident page and started a migration (UVM host tier).
	EvPageFault
	// EvPageMigrateIn is a completed host-to-device page migration.
	// Value is the fault-to-resident latency in cycles.
	EvPageMigrateIn
	// EvPageEvict is a device page dropped to the host tier. Class: 0
	// clean, 1 dirty (writeback charged to the link).
	EvPageEvict
	// EvPageThrash is an eviction of a page admitted within the
	// configured thrash window (refault churn indicator).
	EvPageThrash
	// EvPagePrefetch is a migration batch issued ahead of demand by the
	// UVM prefetcher. Value is the batch size in pages (1 for a
	// non-adjacent strided prefetch).
	EvPagePrefetch

	numEventKinds
)

// NumEventKinds is the number of event kinds.
const NumEventKinds = int(numEventKinds)

var kindNames = [...]string{
	EvSMIssue:       "sm_issue",
	EvSMStall:       "sm_stall",
	EvL2Hit:         "l2_hit",
	EvL2Miss:        "l2_miss",
	EvDRAMEnqueue:   "dram_enqueue",
	EvDRAMService:   "dram_service",
	EvMEEAccept:     "mee_accept",
	EvMEEReadDone:   "mee_read_done",
	EvMetaFetch:     "meta_fetch",
	EvPredictRO:     "predict_readonly",
	EvPredictStream: "predict_streaming",
	EvDetection:     "detection",
	EvMonitorArm:    "monitor_arm",
	EvMonitorSkip:   "monitor_skip",
	EvPageFault:     "page_fault",
	EvPageMigrateIn: "page_migrate_in",
	EvPageEvict:     "page_evict",
	EvPageThrash:    "page_thrash",
	EvPagePrefetch:  "page_prefetch",
}

// String returns the export name of the event kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one typed probe event with a cycle timestamp. The payload fields
// are interpreted per kind (see the EventKind docs).
type Event struct {
	// Cycle is the simulated cycle the event occurred at.
	Cycle uint64
	// Kind selects the event type.
	Kind EventKind
	// Class is a kind-specific small discriminator (traffic class,
	// instruction class, prediction outcome bits).
	Class uint8
	// Part is the memory partition (-1 when not applicable).
	Part int16
	// Unit is a kind-specific sub-identifier (SM id, bank id, read/write).
	Unit int16
	// Value is a kind-specific magnitude (latency, queue depth, accesses).
	Value uint64
}

// Config configures a Collector.
type Config struct {
	// SampleInterval is the timeline sampling period in cycles
	// (0 disables the timeline).
	SampleInterval uint64
	// CaptureEvents enables the raw event trace for the low-frequency
	// lifecycle kinds (MEE read completions, detections, tracker arms).
	// High-frequency kinds (SM issue/stall, L2 hits/misses, DRAM traffic)
	// are always aggregated into counters and histograms only.
	CaptureEvents bool
	// MaxEvents bounds the captured event trace; further events are
	// counted as dropped. 0 means DefaultMaxEvents.
	MaxEvents int
}

// DefaultMaxEvents is the event-trace capacity used when Config.MaxEvents
// is zero.
const DefaultMaxEvents = 1 << 18

// captureWorthy marks the kinds retained in the raw event trace. The
// per-cycle and per-sector kinds would dominate the trace and are fully
// described by the interval counters, so they stay aggregate-only.
var captureWorthy = [NumEventKinds]bool{
	EvMEEReadDone: true,
	EvDetection:   true,
	EvMonitorArm:  true,
	EvMonitorSkip: true,
}

// Collector aggregates probe events: per-kind counters, latency/occupancy
// histograms, a bounded raw event trace, and the interval timeline.
// Components hold a *Collector probe field that is nil by default, and
// every emit site guards with a nil check (shmlint's probeguard enforces
// it). All methods are nil-receiver safe as well.
//
// A Collector belongs to one simulation run and is not safe for concurrent
// use (runs are single-goroutine).
type Collector struct {
	cfg    Config
	counts [NumEventKinds]uint64

	// DRAMQueueDepth observes channel queue depth at every enqueue.
	DRAMQueueDepth Histogram
	// DRAMServiceLatency observes per-sector DRAM service latency.
	DRAMServiceLatency Histogram
	// MEEReadLatency observes MEE submit-to-response read latency.
	MEEReadLatency Histogram
	// UVMMigrationLatency observes fault-to-resident page migration
	// latency (UVM host tier).
	UVMMigrationLatency Histogram
	// UVMPrefetchBatch observes the size in pages of every migration
	// batch the UVM prefetcher issues (coalesced PCIe transactions).
	UVMPrefetchBatch Histogram

	events  []Event
	dropped uint64

	timeline     Timeline
	nextSampleAt uint64
	endCycle     uint64
	finished     bool
}

// New builds a Collector.
func New(cfg Config) *Collector {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	c := &Collector{cfg: cfg}
	c.timeline.Interval = cfg.SampleInterval
	return c
}

// Config returns the collector configuration.
func (c *Collector) Config() Config {
	if c == nil {
		return Config{}
	}
	return c.cfg
}

// Emit records one probe event.
func (c *Collector) Emit(e Event) {
	if c == nil {
		return
	}
	c.counts[e.Kind]++
	switch e.Kind {
	case EvDRAMEnqueue:
		c.DRAMQueueDepth.Observe(e.Value)
	case EvDRAMService:
		c.DRAMServiceLatency.Observe(e.Value)
	case EvMEEReadDone:
		c.MEEReadLatency.Observe(e.Value)
	case EvPageMigrateIn:
		c.UVMMigrationLatency.Observe(e.Value)
	case EvPagePrefetch:
		c.UVMPrefetchBatch.Observe(e.Value)
	}
	if c.cfg.CaptureEvents && captureWorthy[e.Kind] {
		if len(c.events) < c.cfg.MaxEvents {
			c.events = append(c.events, e) //shm:alloc-ok amortized growth, capped at cfg.MaxEvents
		} else {
			c.dropped++
		}
	}
}

// AddEvents adds n occurrences of kind k to the aggregate counter without
// materializing individual events. The fast-forward cycle loop uses it to
// account, in bulk, the per-cycle stall events an every-cycle run would
// have emitted across a skipped idle gap. k must be a counter-only kind —
// no histogram observation, not capture-worthy — so that n Emit calls and
// one AddEvents(k, n) are exactly equivalent; EvSMStall qualifies.
func (c *Collector) AddEvents(k EventKind, n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.counts[k] += n
}

// NextSampleAt returns the cycle at which the next timeline sample is due,
// or ^uint64(0) when sampling is disabled. The event-horizon fast-forward
// treats it as a component horizon so instrumented runs sample at exactly
// the cycles an every-cycle run would.
func (c *Collector) NextSampleAt() uint64 {
	if c == nil || c.cfg.SampleInterval == 0 {
		return ^uint64(0)
	}
	return c.nextSampleAt
}

// Count returns the number of events of kind k observed.
func (c *Collector) Count(k EventKind) uint64 {
	if c == nil {
		return 0
	}
	return c.counts[k]
}

// Counts returns the full per-kind counter array.
func (c *Collector) Counts() [NumEventKinds]uint64 {
	if c == nil {
		return [NumEventKinds]uint64{}
	}
	return c.counts
}

// Events returns the captured raw event trace (in emission order).
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	return c.events
}

// DroppedEvents returns the number of capture-worthy events discarded after
// the trace filled up.
func (c *Collector) DroppedEvents() uint64 {
	if c == nil {
		return 0
	}
	return c.dropped
}

// EndCycle returns the final simulated cycle recorded by FinishRun.
func (c *Collector) EndCycle() uint64 {
	if c == nil {
		return 0
	}
	return c.endCycle
}
