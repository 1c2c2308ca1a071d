// chaosrun replays the paper's Section 7.4 failure-recovery experiment on
// this machine: it inverts a seeded matrix fault-free, inverts it again
// while a seeded chaos schedule kills datanodes mid-pipeline (plus one
// injected straggler and transient shuffle-fetch errors), and reports the
// slowdown and whether the two inverses are bit-identical.
//
//	chaosrun -n 192 -nb 48 -nodes 8 -kill 2 -seed 1
//	chaosrun -n 192 -nb 48 -nodes 8 -kill 2 -seed 1 -restart -json
//	chaosrun -kill 2 -assert          # CI smoke: nonzero exit on any miss
//
// What a seed replays is the fault plan (its events and their logical
// ticks) and the inverse bits: the faulty inverse is bit-identical to the
// fault-free one. The injected-fault counts are not replayed: the chaos
// clock ticks on attempt starts and shuffle fetches, whose order depends
// on scheduling, so the same seed can report different fetch-error,
// task-failure and healed-replica counts from run to run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/chaos"
)

func main() {
	n := flag.Int("n", 192, "matrix order")
	nb := flag.Int("nb", 48, "block size (bound value)")
	nodes := flag.Int("nodes", 8, "simulated cluster size")
	kill := flag.Int("kill", 2, "datanodes to crash mid-pipeline")
	seed := flag.Int64("seed", 1, "matrix + fault-schedule seed")
	restart := flag.Bool("restart", false, "revive killed nodes later in the run")
	slow := flag.Duration("slow-delay", chaos.DefaultSlowDelay, "injected straggler length (0 disables)")
	fetchEvery := flag.Int("fetch-fail-every", 3, "inject transient fetch errors for ~1 in this many map outputs (0 disables)")
	jsonOut := flag.Bool("json", false, "emit the full experiment result as one JSON object")
	assert := flag.Bool("assert", false, "exit nonzero unless the run is bit-identical and exercised every failure mode")
	flag.Parse()

	res, err := chaos.RunExperiment(chaos.ExperimentConfig{
		N: *n, NB: *nb, Nodes: *nodes, Kill: *kill, Seed: *seed,
		Restart: *restart, SlowDelay: *slow, FetchFailEvery: *fetchEvery,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("fault schedule (seed %d):\n%s\n", *seed, res.Plan)
		fmt.Printf("baseline: %8.1fms  %d jobs, %d task failures, residual %.2g\n",
			res.Baseline.ElapsedMs, res.Baseline.Jobs, res.Baseline.TaskFailures, res.Baseline.Residual)
		fmt.Printf("chaos:    %8.1fms  %d jobs, %d task failures, %d lost map outputs, %d speculative, %d fetch retries, residual %.2g\n",
			res.Faulty.ElapsedMs, res.Faulty.Jobs, res.Faulty.TaskFailures,
			res.Faulty.LostMapOutputs, res.Faulty.SpeculativeTasks, res.Faulty.FetchRetries, res.Faulty.Residual)
		fmt.Printf("injected: %d kills, %d restarts, %d crashed attempts, %d slow attempts, %d fetch errors, %d replicas healed (%d bytes re-replicated)\n",
			res.Chaos.Kills, res.Chaos.Restarts, res.Chaos.CrashedAttempts,
			res.Chaos.SlowAttempts, res.Chaos.FetchErrorsInjected,
			res.Chaos.ReplicasHealed, res.Chaos.BytesReReplicated)
		fmt.Printf("slowdown: %.2fx   inverse bit-identical to fault-free run: %v\n", res.Slowdown, res.Identical)
	}

	if *assert {
		fail := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "chaosrun: ASSERT FAILED: "+format+"\n", args...)
			os.Exit(1)
		}
		if !res.Identical {
			fail("inverse under chaos differs from fault-free run (%s vs %s)",
				res.Faulty.SHA256, res.Baseline.SHA256)
		}
		if res.Chaos.Kills != *kill {
			fail("%d of %d scheduled kills fired", res.Chaos.Kills, *kill)
		}
		if *kill > 0 && res.Faulty.TaskFailures == 0 {
			fail("no task failures despite killed nodes")
		}
		if *slow > 0 && res.Faulty.SpeculativeTasks == 0 {
			fail("injected straggler drove no speculative attempt")
		}
		if *kill > 0 && res.Chaos.BytesReReplicated == 0 {
			fail("no bytes re-replicated despite killed nodes")
		}
	}
}
