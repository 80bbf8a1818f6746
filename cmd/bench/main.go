// Command bench regenerates the paper's evaluation figures (§11–§12)
// and the repo's machine-readable performance baseline.
//
//	go run ./cmd/bench -fig 11a                    # one figure
//	go run ./cmd/bench -fig all -quick             # every figure, shrunk sweeps
//	go run ./cmd/bench -baseline BENCH_1.json -quick
//
// Figure output is one aligned table per figure with the same series
// and x-axis the paper plots. The -baseline mode runs
// the scenario matrix behind BENCH_<n>.json (tps, latency, reexec/tx,
// allocs/tx, heap-in-use per scenario), validates it (non-zero
// throughput everywhere — CI's bench smoke gate), and writes the JSON.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"thunderbolt/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to run: 11a|11b|12|13|14|15|16|17|all")
		quick    = flag.Bool("quick", false, "shrunk sweeps for fast runs")
		seed     = flag.Int64("seed", 42, "experiment seed")
		out      = flag.String("out", "", "also write the tables to this file")
		baseline = flag.String("baseline", "", "run the baseline scenario matrix and write BENCH JSON to this path")
		spec     = flag.Bool("spec", true, "speculative execution of certified blocks in cluster scenarios (-spec=false is the escape hatch)")
	)
	flag.Parse()
	opt := bench.Options{Quick: *quick, Seed: *seed}
	if !*spec {
		opt.SpecExecDepth = -1
	}

	if *baseline != "" {
		rep, err := bench.RunBaseline(opt, bench.BaselineVersion(*baseline))
		if err != nil {
			log.Fatalf("baseline run failed: %v", err)
		}
		fmt.Print(bench.FormatBaseline(rep))
		if err := rep.Validate(); err != nil {
			log.Fatalf("baseline validation failed: %v", err)
		}
		js, err := rep.JSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*baseline, js, 0o644); err != nil {
			log.Fatal(err)
		}
		return
	}

	var rows []bench.Row
	switch strings.ToLower(*fig) {
	case "11a":
		rows = bench.Fig11a(opt)
	case "11b":
		rows = bench.Fig11b(opt)
	case "12":
		rows = bench.Fig12(opt)
	case "13":
		rows = bench.Fig13(opt)
	case "14":
		rows = bench.Fig14(opt)
	case "15":
		rows = bench.Fig15(opt)
	case "16":
		rows = bench.Fig16(opt)
	case "17":
		rows = bench.Fig17(opt)
	case "all":
		rows = bench.All(opt)
	default:
		log.Fatalf("unknown figure %q", *fig)
	}
	text := bench.Format(rows)
	fmt.Print(text)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
