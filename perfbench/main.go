// Command perfbench is the repository benchmark. It assembles a
// 4-replica Thunderbolt committee from the public constructors, drives
// one SmallBank workload against it, checks that the committee's
// outputs are correct, and prints every metric by name with its unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload lan-open --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output carries the
// end-to-end metrics of one untraced run. With --trace 1 it carries
// the per-layer metrics of a traced run, whose wrappers count and time
// every call into the transport, crypto, storage and contract layers,
// next to an untraced run that gives the tracing overhead. The line
// before it stamps the environment and the workload parameters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type info struct {
	Workload   spec           `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	GoMaxProcs int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GoVersion  string         `json:"go_version"`
	Detail     map[string]any `json:"detail"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "workload name: lan-open, tcp-wal-closed or exec-contended")
		seed    = flag.Int64("seed", 1, "seed of the generated transaction stream")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	)
	flag.Parse()
	s, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	workdir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workdir)
	window := time.Duration(*seconds) * time.Second

	inf := info{
		Workload: s, Seed: *seed, Seconds: *seconds, Trace: *trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	var res result
	if *trace == 0 {
		r, err := runOnce(s, *seed, window, false, s.Setups, workdir, "")
		if err != nil {
			return err
		}
		res, inf.Detail, err = endToEnd(r)
		if err != nil {
			return err
		}
	} else {
		plain, err := runOnce(s, *seed, window, false, 1, workdir, "")
		if err != nil {
			return err
		}
		spanDir := filepath.Join(".bench_build", "traces")
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return err
		}
		spanPath := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", s.Name, *seed))
		traced, err := runOnce(s, *seed, window, true, 1, workdir, spanPath)
		if err != nil {
			return err
		}
		res, inf.Detail, err = perLayer(traced, plain)
		if err != nil {
			return err
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	line, err := json.Marshal(map[string]info{"info": inf})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
