// Interprocedural: demonstrate the pure-call extension. The paper's §3
// limit study shows large gains from letting idempotent regions cross
// function boundaries; this repository's first step in that direction
// lets regions span calls to provably memory-free functions (recovery
// simply re-executes the call with the enclosing region).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"idemproc/internal/codegen"
	"idemproc/internal/core"
	"idemproc/internal/fault"
	"idemproc/internal/machine"
	"idemproc/internal/workloads"
)

func main() {
	w, ok := workloads.ByName("swaptions")
	if !ok {
		log.Fatal("workload missing")
	}

	fmt.Println("swaptions: a Monte-Carlo kernel whose hot loop calls the pure helpers lcg/simulate")
	fmt.Println()

	var pure []string
	for name := range core.PureFunctions(w.Module()) {
		pure = append(pure, name)
	}
	sort.Strings(pure)
	fmt.Print("memory-free functions found: ")
	for _, name := range pure {
		fmt.Printf("@%s ", name)
	}
	fmt.Println()

	measure := func(pureCalls bool) (*machine.Machine, *codegen.Program) {
		p, _, err := codegen.CompileModuleOpts(w.Module(), "main", w.MemWords,
			codegen.ModuleOptions{Idempotent: true, Core: core.DefaultOptions(), PureCalls: pureCalls})
		if err != nil {
			log.Fatal(err)
		}
		m := machine.New(p, machine.Config{BufferStores: true, TrackPaths: true, Cache: machine.DefaultCache()})
		if _, err := m.Run(w.Args...); err != nil {
			log.Fatal(err)
		}
		return m, p
	}

	intra, _ := measure(false)
	inter, ip := measure(true)
	fmt.Printf("\n%-34s %18s %14s\n", "", "intra-procedural", "pure-calls")
	fmt.Printf("%-34s %18.1f %14.1f\n", "avg dynamic path length (instrs)", intra.Stats.AvgPathLen(), inter.Stats.AvgPathLen())
	fmt.Printf("%-34s %18d %14d\n", "region boundaries crossed", intra.Stats.Marks, inter.Stats.Marks)
	fmt.Printf("%-34s %18d %14d\n", "cycles", intra.Stats.Cycles, inter.Stats.Cycles)

	// Recovery still works with regions spanning the calls.
	res, err := fault.RunCampaign(context.Background(), fault.Apply(ip, fault.SchemeIdempotence), fault.Spec{
		Scheme: fault.SchemeIdempotence, Runs: 20, Seed: fault.DefaultSeed, Args: w.Args,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfault campaign over the pure-calls binary: %d/%d landed faults recovered to correct results\n",
		res.Correct, res.Landed)
}
