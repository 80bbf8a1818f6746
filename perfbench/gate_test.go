package main

import (
	"strings"
	"testing"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

const testAccounts = 10

func gateFixture() gateInput {
	in := gateInput{accounts: testAccounts, genesis: 2 * testAccounts * 100}
	for i := 0; i < 3; i++ {
		st := storage.New()
		workload.InitAccounts(st, testAccounts, 100, 100)
		in.stores = append(in.stores, st)
		in.sums = append(in.sums, commitSum{})
	}
	return in
}

// transfer moves amount from account a's checking to account b's on st.
func transfer(st storage.Backend, a, b int, amount int64) {
	ca, cb := workload.CheckingKey(workload.AccountName(a)), workload.CheckingKey(workload.AccountName(b))
	va, _ := st.Get(ca)
	vb, _ := st.Get(cb)
	x, _ := contract.DecodeInt64(va)
	y, _ := contract.DecodeInt64(vb)
	st.Apply([]types.RWRecord{{Key: ca, Value: contract.EncodeInt64(x - amount)}, {Key: cb, Value: contract.EncodeInt64(y + amount)}})
}

func TestGateAcceptsAgreeingReplicas(t *testing.T) {
	in := gateFixture()
	for _, st := range in.stores {
		transfer(st, 1, 2, 7)
	}
	if err := checkGate(in); err != nil {
		t.Fatal(err)
	}
}

func TestGateRejectsDivergedReplica(t *testing.T) {
	in := gateFixture()
	// A conserving transfer on one replica only: balances still sum to
	// genesis, so only the state comparison can catch it.
	transfer(in.stores[2], 1, 2, 7)
	err := checkGate(in)
	if err == nil || !strings.Contains(err.Error(), "replica 2 diverges") {
		t.Fatalf("diverged replica passed the gate: %v", err)
	}
}

func TestGateRejectsLostBalance(t *testing.T) {
	in := gateFixture()
	for _, st := range in.stores {
		st.Apply([]types.RWRecord{{Key: workload.SavingsKey(workload.AccountName(3)), Value: contract.EncodeInt64(0)}})
	}
	err := checkGate(in)
	if err == nil || !strings.Contains(err.Error(), "total balance") {
		t.Fatalf("non-conserving state passed the gate: %v", err)
	}
}

func TestGateRejectsMissingCommit(t *testing.T) {
	in := gateFixture()
	id := types.Digest{9}
	in.union.add(id)
	in.sums[0].add(id)
	in.sums[2].add(id)
	err := checkGate(in)
	if err == nil || !strings.Contains(err.Error(), "replica 1 committed 0 transactions") {
		t.Fatalf("replica missing a commit passed the gate: %v", err)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	p, err := pickPercentile(samples, 0.99, -1)
	if err != nil {
		t.Fatal(err)
	}
	// 500 samples have only 5 beyond p99; the highest percentile with
	// ten beyond it is the 490th sample.
	if p.Value != 490 || p.Used != 0.98 {
		t.Fatalf("p99 of 500 samples read %v at percentile %v", p.Value, p.Used)
	}
	p, err = pickPercentile(samples, 0.5, -1)
	if err != nil || p.Value != 250 || p.Used != 0.5 {
		t.Fatalf("p50 = %+v, %v", p, err)
	}
	if _, err := pickPercentile(samples[:10], 0.5, -1); err == nil {
		t.Fatal("ten samples gave a percentile with ten beyond it")
	}
}
