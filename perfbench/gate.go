package main

import (
	"bytes"
	"fmt"

	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// gateInput is what the correctness gate checks once the committee
// has drained: replica i's state and committed set are stores[i] and
// sums[i].
type gateInput struct {
	stores   []storage.Backend
	sums     []commitSum
	union    commitSum // every transaction any replica committed
	accounts int
	genesis  int64 // total SmallBank balance at genesis
}

// checkGate fails unless every replica holds identical state, the
// total balance equals genesis, and every replica committed exactly
// the set of transactions committed anywhere, each once. A client
// learns of a commit from the first replica to commit it, so the last
// check is that no transaction acknowledged to a client is missing on
// any replica.
func checkGate(in gateInput) error {
	if len(in.stores) == 0 {
		return fmt.Errorf("gate: no replicas")
	}
	ref := in.stores[0].Dump()
	for i, st := range in.stores {
		if i > 0 {
			if err := sameState(ref, st.Dump()); err != nil {
				return fmt.Errorf("gate: replica %d diverges from replica 0: %v", i, err)
			}
		}
		total, err := workload.TotalBalance(st, in.accounts)
		if err != nil {
			return fmt.Errorf("gate: replica %d balances: %v", i, err)
		}
		if total != in.genesis {
			return fmt.Errorf("gate: replica %d total balance %d, genesis %d", i, total, in.genesis)
		}
		if in.sums[i] != in.union {
			return fmt.Errorf("gate: replica %d committed %d transactions (set sum %x/%x), the committee %d (%x/%x)",
				i, in.sums[i].N, in.sums[i].A, in.sums[i].B, in.union.N, in.union.A, in.union.B)
		}
	}
	return nil
}

func sameState(a, b []types.RWRecord) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d keys vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			return fmt.Errorf("key %d is %q vs %q", i, b[i].Key, a[i].Key)
		}
		if !bytes.Equal(a[i].Value, b[i].Value) {
			return fmt.Errorf("value of %q is %x vs %x", a[i].Key, b[i].Value, a[i].Value)
		}
	}
	return nil
}
