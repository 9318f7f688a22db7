// Quickstart: simulate one GPU workload under the paper's SHM design and
// under the insecure baseline, then report the performance overhead and
// the security-metadata bandwidth overhead — the paper's two headline
// metrics — for a single benchmark.
package main

import (
	"fmt"
	"log"

	"shmgpu"
)

func main() {
	cfg := shmgpu.QuickConfig() // scaled-down GPU for a fast first run

	const workload = "fdtd2d" // the paper's streaming showcase benchmark

	run := func(design string) shmgpu.Result {
		sch, err := shmgpu.SchemeByName(design)
		if err != nil {
			log.Fatal(err)
		}
		out, err := shmgpu.Execute(shmgpu.RunSpec{Config: cfg, Workload: workload, Scheme: sch})
		if err != nil {
			log.Fatal(err)
		}
		return out.Result
	}
	base := run("Baseline")
	shm := run("SHM")

	fmt.Printf("workload: %s\n", workload)
	fmt.Printf("baseline IPC:        %.3f\n", base.IPC())
	fmt.Printf("SHM IPC:             %.3f\n", shm.IPC())
	fmt.Printf("normalized IPC:      %.3f\n", shm.IPC()/base.IPC())
	fmt.Printf("performance overhead %.2f%%\n", 100*(1-shm.IPC()/base.IPC()))
	fmt.Printf("bandwidth overhead:  %.2f%% of data traffic is security metadata\n",
		100*shm.BandwidthOverhead())
	fmt.Println()
	fmt.Println("available workloads:", shmgpu.Workloads())
	fmt.Println("available schemes:  ", shmgpu.Schemes())
}
