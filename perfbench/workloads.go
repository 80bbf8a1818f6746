package main

import (
	"fmt"
	"time"
)

// spec is one benchmark workload: how the committee is assembled and
// how load is offered to it. Every workload runs SmallBank's
// conserving stream (GetBalance and SendPayment only) on four
// replicas in CE mode, so the correctness gate can assert that the
// total balance equals genesis.
type spec struct {
	Name string `json:"name"`
	// Net is "sim" (in-process simulated LAN, 0.15-0.3 ms one-way) or
	// "tcp" (loopback sockets).
	Net string `json:"net"`
	// Scheme is the signature scheme: "insecure" (HMAC) or "ed25519".
	Scheme string `json:"scheme"`
	// Durable selects the WAL backend with fsync on; otherwise the
	// in-memory store.
	Durable bool `json:"durable"`
	// CostModel wraps every contract so each State access costs 16
	// SHA-256 rounds plus a yield (the executor cost model of
	// internal/bench), making execution the dominant layer.
	CostModel bool `json:"cost_model"`
	// Theta is the Zipfian skew, ReadRatio the GetBalance share.
	Theta     float64 `json:"theta"`
	ReadRatio float64 `json:"read_ratio"`
	// Rate is the open-loop offered load in tx/s (one generator
	// goroutine); 0 means closed loop with Clients goroutines.
	Rate    float64 `json:"rate_tps"`
	Clients int     `json:"clients"`

	Accounts    int   `json:"accounts"`
	InitBalance int64 `json:"init_balance"`
	// Warm-up lasts until replica 0 has proposed WarmRounds rounds,
	// so the DAG has filled its garbage-collection horizon (2048
	// rounds by default) and memory is in steady state, and at least
	// MinWarmup, at most MaxWarmup.
	WarmRounds uint64        `json:"warm_rounds"`
	MinWarmup  time.Duration `json:"min_warmup_ns"`
	MaxWarmup  time.Duration `json:"max_warmup_ns"`
	// Timeout is how long a transaction may take to commit before it
	// counts as failed and as a latency miss.
	Timeout time.Duration `json:"timeout_ns"`
	// Setups is how many times the committee is built up to its first
	// commit; setup_s is the median.
	Setups int `json:"setups"`
}

const replicas = 4

func base(name string) spec {
	return spec{
		Name: name, Net: "sim", Scheme: "insecure",
		Theta: 0.85, ReadRatio: 0.5,
		Accounts: 1000, InitBalance: 1_000_000,
		WarmRounds: 2048 + 256, MinWarmup: 2 * time.Second, MaxWarmup: 15 * time.Second,
		Timeout: 5 * time.Second,
		Setups:  11,
	}
}

// workloads lists the benchmark's workloads. Each stresses a different
// layer; see BENCHMARK.json for why each was chosen.
func workloads() map[string]spec {
	lan := base("lan-open")
	lan.Rate = 4000

	tcp := base("tcp-wal-closed")
	tcp.Net, tcp.Scheme, tcp.Durable = "tcp", "ed25519", true
	tcp.Clients = 32

	exec := base("exec-contended")
	exec.CostModel = true
	exec.Theta, exec.ReadRatio = 0.95, 0
	exec.Clients = 32

	out := map[string]spec{}
	for _, s := range []spec{lan, tcp, exec} {
		out[s.Name] = s
	}
	return out
}

func lookupWorkload(name string) (spec, error) {
	s, ok := workloads()[name]
	if !ok {
		return spec{}, fmt.Errorf("unknown workload %q", name)
	}
	return s, nil
}
