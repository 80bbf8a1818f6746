package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/node"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// committee is a 4-replica Thunderbolt committee the benchmark
// assembles from the public constructors, so the traced run can wrap
// each layer at its interface. Replicas receive only the generated
// transactions: keys and network use fixed seeds.
type committee struct {
	s  spec
	l  *layers // nil in untraced runs
	tr *tracker

	nodes    []*node.Node
	stores   []storage.Backend // unwrapped, for the correctness gate
	perNode  []*atomicSum
	sim      *transport.SimNetwork
	tcps     []*transport.TCPTransport
	durables []*storage.Durable
	dir      string

	epoch    atomic.Uint64
	rejects  atomic.Int64
	rejected chan *types.Transaction

	wavesMu sync.Mutex
	waves   []time.Time // replica 0's commit waves

	done     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

const keySeed = 1

func newCommittee(s spec, l *layers, dir string) (c *committee, err error) {
	c = &committee{
		s: s, l: l, tr: newTracker(), dir: dir,
		// Sized to absorb a full round of negative acks without
		// blocking a node's event loop.
		rejected: make(chan *types.Transaction, 8192),
		done:     make(chan struct{}),
	}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	scheme, err := crypto.SchemeByName(s.Scheme)
	if err != nil {
		return c, err
	}
	signers, verifier, err := scheme.Committee(replicas, keySeed)
	if err != nil {
		return c, err
	}
	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)
	if s.CostModel {
		reg = wrapRegistry(reg, costly)
	}
	if l != nil {
		reg = l.registry(reg)
		verifier = l.verifier(verifier)
	}

	trs := make([]transport.Transport, replicas)
	switch s.Net {
	case "sim":
		c.sim = transport.NewSimNetwork(transport.SimConfig{
			N:       replicas,
			Latency: transport.LANModel(), Seed: keySeed,
		})
		for i := range trs {
			trs[i] = c.sim.Endpoint(types.ReplicaID(i))
		}
	case "tcp":
		peers := make(map[types.ReplicaID]string, replicas)
		for i := range trs {
			t, err := transport.NewTCPTransport(transport.TCPConfig{Self: types.ReplicaID(i), Listen: "127.0.0.1:0"})
			if err != nil {
				return c, err
			}
			c.tcps = append(c.tcps, t)
			peers[types.ReplicaID(i)] = t.Addr()
			trs[i] = t
		}
		for _, t := range c.tcps {
			t.SetPeers(peers)
		}
	default:
		return c, fmt.Errorf("unknown network %q", s.Net)
	}

	for i := 0; i < replicas; i++ {
		var st storage.Backend
		if s.Durable {
			d, err := storage.OpenDurable(storage.DurableOptions{Dir: filepath.Join(dir, fmt.Sprintf("replica-%d", i))})
			if err != nil {
				return c, err
			}
			c.durables = append(c.durables, d)
			st = d
		} else {
			st = storage.New()
		}
		workload.InitAccounts(st, s.Accounts, s.InitBalance, s.InitBalance)
		c.stores = append(c.stores, st)
		sum := &atomicSum{}
		c.perNode = append(c.perNode, sum)

		cfg := node.Config{
			ID: types.ReplicaID(i), N: replicas,
			Transport: trs[i], Signer: signers[i], Verifier: verifier,
			Registry: reg, Store: st,
			Mode: node.ModeCE, Executors: 16, Validators: 16, BatchSize: 500,
			OnCommitTx: func(tx *types.Transaction, when time.Time) {
				id := tx.ID()
				sum.add(id)
				c.tr.onCommit(id, when)
			},
			OnRejectTx: c.onReject,
			OnReconfig: c.noteEpoch,
		}
		if i == 0 {
			cfg.OnCommitWave = c.onWave
		}
		if l != nil {
			cfg.Transport = tracedTransport{Transport: trs[i], l: l}
			cfg.Signer = tracedSigner{Signer: signers[i], l: l}
			cfg.Store = l.store(st)
		}
		nd, err := node.New(cfg)
		if err != nil {
			return c, err
		}
		c.nodes = append(c.nodes, nd)
	}
	return c, nil
}

// Client session identities: each generator stamps its own session,
// whose nonces start at 1 once per committee.
const (
	probeSession  = 1 << 18
	clientSession = 1 << 20
)

func (c *committee) start() {
	c.wg.Add(1)
	go c.resubmitRejected()
	for _, n := range c.nodes {
		n.Start()
	}
}

// stop tears the committee down and removes its data directory. Safe
// on a partially built committee, and to call more than once.
func (c *committee) stop() {
	c.stopOnce.Do(func() {
		close(c.done)
		for _, n := range c.nodes {
			n.Stop()
		}
		c.wg.Wait()
		if c.sim != nil {
			c.sim.Close()
		}
		for _, t := range c.tcps {
			_ = t.Close()
		}
		// Durable backends close after their nodes: Close cuts a final
		// checkpoint whose meta capture reads node state.
		for _, d := range c.durables {
			_ = d.Close()
		}
		if c.dir != "" {
			_ = os.RemoveAll(c.dir)
		}
	})
}

func (c *committee) noteEpoch(e types.Epoch, _ time.Time) {
	for {
		cur := c.epoch.Load()
		if uint64(e) <= cur || c.epoch.CompareAndSwap(cur, uint64(e)) {
			return
		}
	}
}

func (c *committee) onWave(_ types.Epoch, _ types.Round, when time.Time) {
	c.wavesMu.Lock()
	c.waves = append(c.waves, when)
	c.wavesMu.Unlock()
}

// submit routes tx to the proposer serving its shard in the newest
// epoch any replica has reached.
func (c *committee) submit(tx *types.Transaction) error {
	shard := types.ShardID(0)
	if len(tx.Shards) > 0 {
		shard = tx.Shards[0]
	}
	return c.nodes[node.ProposerOfShard(shard, types.Epoch(c.epoch.Load()), replicas)].Submit(tx)
}

// onReject runs on a node's event loop and must not block.
func (c *committee) onReject(tx *types.Transaction) {
	select {
	case c.rejected <- tx:
	default: // the client's timeout is the backstop
	}
}

func (c *committee) resubmitRejected() {
	defer c.wg.Done()
	for {
		select {
		case tx := <-c.rejected:
			c.rejects.Add(1)
			_ = c.submit(tx)
		case <-c.done:
			return
		}
	}
}

// probe submits one transaction in-process and waits for its first
// commit: the end of set-up.
func (c *committee) probe(tx *types.Transaction, timeout time.Duration) error {
	r := c.tr.track(tx, time.Now(), false, true)
	if err := c.submit(tx); err != nil {
		return err
	}
	select {
	case <-r.done:
		return nil
	case <-time.After(timeout):
		return errors.New("set-up probe transaction did not commit")
	}
}

// settle waits until every replica reports the same commit count
// across two consecutive polls.
func (c *committee) settle(timeout time.Duration) error {
	var prev uint64
	wasEqual := false
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		n := c.nodes[0].Stats().CommittedTxs
		equal := true
		for _, nd := range c.nodes[1:] {
			equal = equal && nd.Stats().CommittedTxs == n
		}
		if equal && wasEqual && n == prev {
			return nil
		}
		wasEqual, prev = equal, n
	}
	return fmt.Errorf("replicas' commit counts did not settle within %v", timeout)
}

// --- execution cost model ---

// costly adds the cost model of internal/bench's executor rows to a
// contract: every State access burns 16 SHA-256 rounds, standing in
// for interpreter cost, and yields the processor, so CE's conflict
// handling sees real interleaving on few cores.
func costly(c contract.Contract) func(contract.State, [][]byte) error {
	return func(st contract.State, args [][]byte) error {
		return c.Execute(costState{st}, args)
	}
}

type costState struct{ inner contract.State }

func spin() {
	var b [32]byte
	for i := 0; i < 16; i++ {
		b = sha256.Sum256(b[:])
	}
}

func (s costState) Read(k types.Key) (types.Value, error) {
	spin()
	runtime.Gosched()
	return s.inner.Read(k)
}

func (s costState) Write(k types.Key, v types.Value) error {
	spin()
	runtime.Gosched()
	return s.inner.Write(k, v)
}
