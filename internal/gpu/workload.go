package gpu

import "shmgpu/internal/memdef"

// MemInst is one memory instruction after coalescing: the set of distinct
// 32 B sectors the warp's lanes touch.
type MemInst struct {
	// Sectors are physical, sector-aligned addresses.
	Sectors []memdef.Addr
	// Write marks a store.
	Write bool
	// Space is the GPU memory space accessed.
	Space memdef.Space
	// Stall marks a scheduling bubble instead of a real instruction: the
	// warp waits briefly and asks again. Workloads use it to model
	// in-order tile dispatch (a warp cannot run arbitrarily far ahead of
	// the grid's work frontier). Stalls are not counted as instructions.
	Stall bool
}

// WarpProgram generates one warp's instruction stream. Implementations are
// deterministic for a given (kernel, sm, warp) so runs are reproducible.
type WarpProgram interface {
	// Next returns the number of non-memory (compute) instructions to
	// issue before the next memory instruction, then that memory
	// instruction. done=true means the warp has finished; the other
	// return values are ignored.
	Next() (compute int, mem MemInst, done bool)
}

// StallPredictor is an optional WarpProgram extension the sequential
// engine's event horizon uses to skip scheduling bubbles (see
// System.smNextEvent). StallsAgain reports whether Next, called at the
// coming tick, would return a Stall bubble without changing any program
// or workload state — and would keep doing so at every later tick until
// some warp of the grid issues a real instruction. It is called between
// ticks, after the previous tick's TickSynced.SyncTick, and must not
// change state itself.
type StallPredictor interface {
	StallsAgain() bool
}

// AddrRange is a half-open physical address range [Lo, Hi).
type AddrRange struct {
	Lo, Hi memdef.Addr
}

// StreamTruth labels a physical range with its true access pattern for
// oracle-predictor preloading (SHM_upper_bound).
type StreamTruth struct {
	Range     AddrRange
	Streaming bool
}

// KernelSetup describes the host-side activity before one kernel launch.
type KernelSetup struct {
	// CopyRanges are host→device copies performed before this kernel.
	// Before the first kernel they mark regions read-only; before later
	// kernels they either clear read-only state (plain overwrite) or
	// restore it via the InputReadOnlyReset API, per UseResetAPI.
	CopyRanges []AddrRange
	// UseResetAPI selects InputReadOnlyReset for this kernel's copies.
	UseResetAPI bool
	// ReadOnlyTruth lists ranges that are truly read-only during this
	// kernel (oracle preload and accuracy ground truth).
	ReadOnlyTruth []AddrRange
	// StreamTruths lists true access patterns per range (oracle preload).
	StreamTruths []StreamTruth
}

// Workload is the interface benchmark models implement.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Kernels returns the number of kernel launches.
	Kernels() int
	// Setup describes host activity before kernel k.
	Setup(k int) KernelSetup
	// NewWarp builds the deterministic instruction stream of one warp.
	NewWarp(kernel, sm, warp int) WarpProgram
}
