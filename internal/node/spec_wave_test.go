package node

import (
	"bytes"
	"testing"
	"time"

	"thunderbolt/internal/ce"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/depgraph"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// waveTestNode builds an unstarted replica 0 of committee over the
// SmallBank genesis (8 accounts); the test drives its event-loop
// methods directly.
func waveTestNode(t *testing.T, committee *dagtest.Committee, specDepth int) *Node {
	t.Helper()
	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)
	st := storage.New()
	workload.InitAccounts(st, 8, 100, 100)
	n, err := New(Config{
		ID: 0, N: committee.N,
		Transport: &nullTransport{id: 0},
		Signer:    committee.Signers[0], Verifier: committee.Ver,
		Registry: reg, Store: st,
		SpecExecDepth:    specDepth,
		MinRoundInterval: time.Hour, // the test drives every step
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSpeculationSessionCollisionWithinWave runs one commit wave cold
// on one replica and as a speculative hit on another, from the same
// genesis, and demands identical store and dedup state. The wave's
// round-2 blocks (proposers 1 then 2 in wave order) carry transactions
// whose session identities collide, so the second one is resolved by
// the time it is reached: a stale single-shard block is discarded
// whole, a repeated cross-shard transaction executes once.
func TestSpeculationSessionCollisionWithinWave(t *testing.T) {
	const client = 7
	window := uint64(waveTestNode(t, dagtest.NewCommittee(4), -1).dedup.Window())
	cases := []struct {
		name          string
		first, second uint64 // nonces of the two blocks' transactions
		cross         bool   // both blocks carry one cross-shard transaction instead
		discarded     uint64
	}{
		// Two single-shard transactions with the same (client, nonce).
		{name: "same-nonce", first: 1, second: 1, discarded: 1},
		// The first nonce lands more than a window above the floor and
		// forces the floor to 5, which covers the second nonce.
		{name: "forced-floor", first: window + 5, second: 3, discarded: 1},
		// A client retransmission included by two proposers.
		{name: "cross-copies", first: 1, second: 1, cross: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			committee := dagtest.NewCommittee(4)
			cold := waveTestNode(t, committee, -1)
			spec := waveTestNode(t, committee, 0)

			depositTx := func(nonce uint64, acct int, shards ...types.ShardID) *types.Transaction {
				kind := types.SingleShard
				if len(shards) > 1 {
					kind = types.CrossShard
				}
				return &types.Transaction{
					Client: client, Nonce: nonce, Kind: kind, Shards: shards,
					Contract: workload.ContractDepositChecking,
					Args:     [][]byte{[]byte(workload.AccountName(acct)), contract.EncodeInt64(10)},
				}
			}
			// Each proposer's block: a deposit on its own account,
			// preplayed against the genesis state as the proposer
			// would, or the shared cross-shard deposit on account 1.
			crossTx := depositTx(tc.first, 1, 1, 2)
			fill := func(b *types.Block, nonce uint64) {
				if tc.cross {
					b.CrossTxs = []*types.Transaction{crossTx}
					return
				}
				tx := depositTx(nonce, int(b.Proposer), b.Shard)
				exec := ce.New(ce.Config{Executors: 1, Registry: cold.cfg.Registry})
				res := exec.ExecuteBatch(depgraph.BaseReader(cold.baseReader), []*types.Transaction{tx})
				b.SingleTxs, b.Results = res.Schedule, res.Results
			}
			bld := dagtest.NewBuilder(committee, 0)
			var rounds [][]*dag.Vertex
			for r := 1; r <= 4; r++ {
				vs := bld.NextRound(nil, func(b *types.Block) {
					switch {
					case b.Round != 2:
					case b.Proposer == 1:
						fill(b, tc.first)
					case b.Proposer == 2:
						fill(b, tc.second)
					}
				})
				round := make([]*dag.Vertex, 0, len(vs))
				for p := 0; p < committee.N; p++ {
					round = append(round, vs[types.ReplicaID(p)])
				}
				rounds = append(rounds, round)
			}
			deliver := func(n *Node, r int) {
				for _, v := range rounds[r-1] {
					if !n.insertVertex(v) {
						t.Fatalf("round %d vertex of %d rejected", r, v.Proposer())
					}
				}
				n.processCommits()
				n.drainExec()
				n.drainSpec()
			}

			// Cold: rounds 1–4 arrive, then the leader-3 wave (rounds 2
			// and 3 plus the round-1 non-leaders) executes at commit.
			for r := 1; r <= 4; r++ {
				deliver(cold, r)
			}
			// Speculative: with round 3 delivered the leader-3 wave is
			// certified but not committed, so it is predicted and
			// executed ahead; round 4 commits it.
			for r := 1; r <= 3; r++ {
				deliver(spec, r)
			}
			if len(spec.specQ) == 0 {
				t.Fatal("leader-3 wave was not predicted")
			}
			deliver(spec, 4)

			if h, m := spec.nm.specHits.Value(), spec.nm.specMisses.Value(); h == 0 || m != 0 {
				t.Fatalf("speculating replica: %d hits, %d misses; want the wave installed as a hit", h, m)
			}
			if h := cold.nm.specHits.Value(); h != 0 {
				t.Fatalf("cold replica recorded %d spec hits", h)
			}
			for name, n := range map[string]*Node{"cold": cold, "spec": spec} {
				if got := n.nm.committedTxs.Value(); got != 1 {
					t.Errorf("%s replica committed %d transactions, want 1", name, got)
				}
				if got := n.nm.validationFailures.Value(); got != tc.discarded {
					t.Errorf("%s replica discarded %d blocks, want %d", name, got, tc.discarded)
				}
				for acct, want := range map[int]int64{1: 110, 2: 100} {
					v, _ := n.cfg.Store.Get(workload.CheckingKey(workload.AccountName(acct)))
					if !v.Equal(contract.EncodeInt64(want)) {
						t.Errorf("%s replica: account %d checking = %x, want %d", name, acct, v, want)
					}
				}
			}
			a, b := cold.cfg.Store.Dump(), spec.cfg.Store.Dump()
			if len(a) != len(b) {
				t.Fatalf("store sizes differ: cold %d keys, spec %d", len(a), len(b))
			}
			for i := range a {
				if a[i].Key != b[i].Key || !a[i].Value.Equal(b[i].Value) {
					t.Fatalf("stores diverge at %s: cold=%x spec=%x", a[i].Key, a[i].Value, b[i].Value)
				}
			}
			ea, eb := types.NewEncoder(), types.NewEncoder()
			cold.dedup.EncodeState(ea)
			spec.dedup.EncodeState(eb)
			if !bytes.Equal(ea.Sum(), eb.Sum()) {
				t.Fatal("dedup state diverges between the cold and the speculating replica")
			}
		})
	}
}
