// Streaming: show the dual-granularity MAC machinery adapting to access
// patterns. A custom workload mixes a large streamed buffer with a
// randomly-accessed one; the simulation reports how the streaming detector
// classified chunks, the MAC traffic saved versus a per-block-MAC-only
// design, and the misprediction-recovery traffic the detectors cost.
package main

import (
	"fmt"
	"log"

	"shmgpu"
	"shmgpu/internal/memdef"
	"shmgpu/internal/scheme"
	"shmgpu/internal/stats"
	"shmgpu/internal/workload"
)

func main() {
	// A synthetic kernel: 70% of memory instructions stream a 12 MiB
	// read-only buffer, 30% randomly poke a 4 MiB table.
	bench := workload.Spec{
		BenchName: "mixed-demo",
		Buffers: []workload.Buffer{
			{Name: "stream-in", Bytes: 12 << 20, Space: memdef.SpaceGlobal,
				Pattern: workload.Stream, ReadOnly: true, Weight: 0.70, HostCopied: true},
			{Name: "rand-table", Bytes: 4 << 20, Space: memdef.SpaceGlobal,
				Pattern: workload.Random, WriteFrac: 0.3, Weight: 0.30},
		},
		ComputePerMem:   10,
		MemInstsPerWarp: 160,
		Seed:            7,
	}

	cfg := shmgpu.QuickConfig()
	run := func(sch scheme.Scheme) shmgpu.Result {
		out, err := shmgpu.Execute(shmgpu.RunSpec{Config: cfg, Generated: &bench, Scheme: sch})
		if err != nil {
			log.Fatal(err)
		}
		return out.Result
	}

	shm := run(scheme.SHM)               // dual-granularity MACs
	blockOnly := run(scheme.SHMReadOnly) // per-block MACs only
	baseline := run(scheme.Baseline)     // no protection

	fmt.Println("mixed streaming/random workload under SHM:")
	fmt.Printf("  chunks detected streaming: %d\n", shm.Reg.Get("det_stream"))
	fmt.Printf("  chunks detected random:    %d\n", shm.Reg.Get("det_random"))
	fmt.Printf("  mispredict recoveries:     %d (re-fetch block MACs) + %d (re-fetch chunk data)\n",
		shm.Reg.Get("mp_refetch_blk_macs"), shm.Reg.Get("mp_refetch_chunk_data"))
	fmt.Println()
	fmt.Printf("  MAC traffic, dual-granularity: %8d bytes\n", shm.Traffic.Bytes(stats.TrafficMAC))
	fmt.Printf("  MAC traffic, block-MAC only:   %8d bytes\n", blockOnly.Traffic.Bytes(stats.TrafficMAC))
	fmt.Printf("  mispredict traffic:            %8d bytes\n", shm.Traffic.Bytes(stats.TrafficMispredict))
	fmt.Println()
	fmt.Printf("  normalized IPC: SHM %.3f, block-MAC-only %.3f\n",
		shm.IPC()/baseline.IPC(), blockOnly.IPC()/baseline.IPC())
	fmt.Printf("  bandwidth overhead: SHM %.2f%%, block-MAC-only %.2f%%\n",
		100*shm.BandwidthOverhead(), 100*blockOnly.BandwidthOverhead())
}
