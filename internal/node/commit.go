package node

import (
	"time"

	"thunderbolt/internal/crypto"
	"thunderbolt/internal/gateway"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
	"thunderbolt/internal/validate"
)

// processCommits drains the Tusk committer and queues every newly
// committed wave for execution. Execution is pipelined: it happens in
// drainExec between event-loop passes, so certificate and vote
// handling for rounds r and r+1 proceeds while wave r−1 executes —
// the commit path never lock-steps the protocol stages.
func (n *Node) processCommits() {
	if waves := n.committer.Advance(); len(waves) > 0 {
		// One clock read covers the batch: waves released by the same
		// Advance committed at the same decision point.
		now := time.Now()
		for _, w := range waves {
			n.execQ = append(n.execQ, execItem{wave: w, committedAt: now})
		}
		n.nm.execQueueDepth.Set(int64(len(n.execQ)))
		n.nm.roundsInFlight.Set(int64(n.nextRound) - 1 - int64(n.committer.LastLeaderRound()))
	}
}

// drainExec executes queued commit waves in order. If a wave pushes
// the epoch's committed Shift count to 2f+1, the node transitions to
// a new DAG immediately and discards any later queued waves of the
// old epoch (resetEpochState clears execQ; the paper's "ending round"
// semantics). Between waves the inbox is re-drained — messages that
// arrived during a long execution are handled (and may append further
// waves) before the next wave runs.
//
// Every wave outside ModeSerial executes through one wave function,
// runWave, and commits through one install, installWave. A wave that
// was predicted, executed ahead of commit, and still holds installs
// the precomputed outcome (trySpecInstall); any other wave runs the
// same function on the committed view and installs it at once.
func (n *Node) drainExec() {
	for i := 0; i < len(n.execQ); i++ {
		it := n.execQ[i]
		n.execQ[i] = execItem{} // release the vertex references
		// The wave's commit stamp, read before any execution.
		now := time.Now()
		switch {
		case n.cfg.Mode == ModeSerial:
			n.installWave(it.wave, &waveResult{}, it.committedAt, now)
		case !n.trySpecInstall(it.wave, it.committedAt, now):
			res := n.runCommitted(it.wave)
			n.installWave(it.wave, &res, it.committedAt, now)
		}
		if len(n.committedShift) >= crypto.QuorumSize(n.n) {
			n.reconfigure()
			n.flushOutbox()
			i = -1 // execQ was replaced by the new epoch's queue, if any
			continue
		}
		// Mid-epoch snapshot cadence: capture when this wave crossed a
		// SnapshotInterval boundary of committed leader rounds. After
		// the wave's execution, so the capture sees its writes — the
		// deterministic position every honest replica shares.
		n.maybeCaptureMidEpoch(it.wave.Leader.Round())
		n.maybeGC()
		n.flushOutbox()
		n.drainInbox()
	}
	// Every entry was consumed (and zeroed above); keep the backing
	// array so steady-state commits stop re-growing the queue.
	n.execQ = n.execQ[:0]
	n.nm.execQueueDepth.Set(0)
}

// waveResult is one wave's outcome as runWave computes it: everything
// installWave needs to commit the wave without executing it again.
type waveResult struct {
	blocks []waveBlock
	cross  []waveCross
	// txs counts the transactions executed — the unit of wasted work
	// a speculation rollback reports.
	txs int
}

// waveBlock is the outcome of one single-shard block: validated with
// its write delta, or discarded (stale or invalid) as a whole.
type waveBlock struct {
	b      *types.Block
	ok     bool
	writes []types.RWRecord
}

// waveCross is the outcome of one cross-shard transaction in
// consensus order.
type waveCross struct {
	tx       *types.Transaction
	round    types.Round
	proposer types.ReplicaID
	failed   bool // deterministic execution failure
	writes   []types.RWRecord
}

// runWave executes one commit wave and returns its outcome, writing
// nothing outside its arguments: validated single-shard preplay
// results first (rules G1/P2), then the consensus-ordered cross-shard
// transactions (OE model). It reads state through read, hands every
// write it produces to fold (so later blocks of the wave read earlier
// blocks' writes), and resolves transaction identities against dv,
// marking there each identity the wave resolves in the order the
// install marks it. Speculation runs it on the speculative overlay
// with a view that includes the waves predicted ahead; cold execution
// and SpecVerify run it on the committed view (runCommitted). Both
// install the same outcome for the same inputs, so a replica that hit
// and one that missed speculation end in identical state.
func (n *Node) runWave(w tusk.CommitWave, dv *gateway.DedupView, read validate.BaseReader, fold func(types.Key, types.Value)) waveResult {
	var res waveResult
	var crossTxs []waveCross
	for _, v := range w.Vertices {
		b := v.Block
		if b.Kind == types.ShiftBlock || b.Kind == types.SkipBlock {
			continue // no execution; installWave does the Shift bookkeeping
		}
		// The block must carry only unresolved transactions of its own
		// shard; otherwise it is stale (a resubmission raced a
		// reconfiguration) or Byzantine, and is discarded wholesale
		// (§4), as is a block whose preplay results fail validation.
		if len(b.SingleTxs) > 0 {
			wb := waveBlock{b: b}
			if !blockStale(b, dv) {
				res.txs += len(b.SingleTxs)
				if r, err := validate.ValidateBatch(n.cfg.Registry, read, b.SingleTxs, b.Results, n.cfg.Validators); err == nil {
					wb.ok = true
					wb.writes = r.Writes
					for _, wr := range r.Writes {
						fold(wr.Key, wr.Value)
					}
					for _, tx := range b.SingleTxs {
						dv.Mark(tx)
					}
				}
			}
			res.blocks = append(res.blocks, wb)
		}
		for _, tx := range b.CrossTxs {
			crossTxs = append(crossTxs, waveCross{tx: tx, round: b.Round, proposer: b.Proposer})
		}
	}
	// Cross-shard transactions run after every single-shard block of
	// the wave (rule G1), in consensus order, parallelized over
	// disjoint shard sets (§5.2). Each one resolves, committed or
	// failed, so filtering in that order drops copies a block of this
	// wave committed (a promoted copy collected from an early vertex),
	// copies included by more than one block (client retransmission to
	// a rotated proposer), and identities resolved before the wave.
	live := crossTxs[:0]
	for _, c := range crossTxs {
		if !dv.Resolved(c.tx) {
			dv.Mark(c.tx)
			live = append(live, c)
		}
	}
	if len(live) > 0 {
		txs := make([]*types.Transaction, len(live))
		for i := range live {
			txs[i] = live[i].tx
		}
		outs := validate.ExecuteCrossOrdered(n.cfg.Registry, read, txs, n.cfg.Validators)
		for i, out := range outs {
			if out.Err != nil {
				live[i].failed = true
				continue
			}
			live[i].writes = out.Writes
			for _, wr := range out.Writes {
				fold(wr.Key, wr.Value)
			}
		}
		res.cross = live
		res.txs += len(live)
	}
	return res
}

// blockStale reports whether a single-shard block must be discarded
// before validation: a foreign-shard transaction smuggled in, an
// identity already resolved in dv, or one transaction included twice.
func blockStale(b *types.Block, dv *gateway.DedupView) bool {
	inBlock := make(map[types.Digest]bool, len(b.SingleTxs))
	for _, tx := range b.SingleTxs {
		if len(tx.Shards) != 1 || tx.Shards[0] != b.Shard {
			return true
		}
		id := tx.ID()
		if dv.Resolved(tx) || inBlock[id] {
			return true
		}
		inBlock[id] = true
	}
	return false
}

// runCommitted runs the wave function on the committed view: the
// store plus a wave-local shadow of the wave's own writes, under the
// live dedup.
func (n *Node) runCommitted(w tusk.CommitWave) waveResult {
	clear(n.shadow)
	n.waveDedup.Reset()
	return n.runWave(w, n.waveDedup, n.shadowReader, n.shadowFold)
}

// shadowRead reads the committed view: the running wave's own writes
// first, then the store.
func (n *Node) shadowRead(k types.Key) types.Value {
	if v, ok := n.shadow[k]; ok {
		return v
	}
	return n.baseRead(k)
}

func (n *Node) shadowWrite(k types.Key, v types.Value) { n.shadow[k] = v }

// baseRead reads committed state.
func (n *Node) baseRead(k types.Key) types.Value {
	v, _ := n.cfg.Store.Get(k)
	return v
}

// markOrder replays a wave outcome's dedup marks into dv in the order
// installWave makes them — validated blocks in wave order, then
// committed cross-shard transactions, then failed ones — and reports
// whether every identity was still unresolved when reached, as it was
// when the wave ran.
func (r *waveResult) markOrder(dv *gateway.DedupView) (fresh bool) {
	fresh = true
	for i := range r.blocks {
		wb := &r.blocks[i]
		if !wb.ok {
			continue
		}
		for _, tx := range wb.b.SingleTxs {
			fresh = fresh && !dv.Resolved(tx)
		}
		for _, tx := range wb.b.SingleTxs {
			dv.Mark(tx)
		}
	}
	for _, failed := range []bool{false, true} {
		for i := range r.cross {
			if c := &r.cross[i]; c.failed == failed {
				fresh = fresh && !dv.Resolved(c.tx)
				dv.Mark(c.tx)
			}
		}
	}
	return fresh
}

// installWave commits one wave's outcome: one coalesced store apply
// for the wave's write sets, then the bookkeeping (dedup marks,
// commit log, acks, block feedback, metrics) in commit order, stamped
// now. Coalescing is sound because the per-key last write of the wave
// is what applying block by block would leave in the store, and the
// merged WAL note carries the same resolved identities in the order
// they are marked here. In ModeSerial res is empty and each normal
// block executes serially as the wave is walked (the Tusk baseline).
// Returns the number of coalesced store writes.
func (n *Node) installWave(w tusk.CommitWave, res *waveResult, committedAt, now time.Time) int {
	// a = vertices in the wave.
	n.trace(metrics.EvCommit, w.Leader.Round(), uint64(len(w.Vertices)), 0)
	n.commitCtx = CommitEntry{Epoch: n.epoch, Wave: w.Leader.Round()}
	for _, v := range w.Vertices {
		b := v.Block
		// Per-stage breakdown: every committed block with both local
		// stamps contributes a propose→certify and a certify→commit
		// sample (stamps are missing only for blocks that predate this
		// replica's tracking — a snapshot install's re-derived history).
		if !b.Stamps.Seen.IsZero() && !b.Stamps.Certified.IsZero() {
			n.nm.stageProposeCertify.Observe(b.Stamps.Certified.Sub(b.Stamps.Seen))
			n.nm.stageCertifyCommit.Observe(committedAt.Sub(b.Stamps.Certified))
		}
		switch {
		case b.Kind == types.ShiftBlock:
			n.committedShift[b.Proposer] = true
		case b.Kind != types.SkipBlock && n.cfg.Mode == ModeSerial:
			n.executeSerial(b, now)
		}
	}

	// One apply for the whole wave: last writer per key, keys in first
	// appearance order, with a single merged note.
	note := n.newMarkNote()
	var order []types.Key
	merged := make(map[types.Key]types.Value)
	addWrites := func(ws []types.RWRecord) {
		for _, wr := range ws {
			if _, ok := merged[wr.Key]; !ok {
				order = append(order, wr.Key)
			}
			merged[wr.Key] = wr.Value
		}
	}
	for i := range res.blocks {
		wb := &res.blocks[i]
		if !wb.ok {
			continue
		}
		for _, tx := range wb.b.SingleTxs {
			note.commit(tx)
		}
		addWrites(wb.writes)
	}
	for i := range res.cross {
		c := &res.cross[i]
		if c.failed {
			note.fail(c.tx)
			continue
		}
		note.commit(c.tx)
		addWrites(c.writes)
	}
	if len(order) > 0 {
		writes := make([]types.RWRecord, len(order))
		for i, k := range order {
			writes[i] = types.RWRecord{Key: k, Value: merged[k]}
		}
		n.applyCommit(writes, note.bytes())
	} else {
		n.noteOnly(note.bytes())
	}

	// Bookkeeping in commit order: blocks in wave order, then cross.
	for i := range res.blocks {
		wb := &res.blocks[i]
		b := wb.b
		if !wb.ok {
			n.nm.validationFailures.Add(1)
			// A proposer whose own block was discarded (typically a
			// cross-shard transaction raced its preplay — the hazard
			// rules P3/P4 bound but cannot fully eliminate under eager
			// preplay) rolls back its speculative overlay and requeues
			// the transactions for a fresh preplay.
			if b.Proposer == n.cfg.ID {
				n.dropOwnBlock(b.Round)
				n.preplayer.invalidate()
				for _, tx := range b.SingleTxs {
					if !n.dedup.Resolved(tx) {
						n.txQueue = append(n.txQueue, tx)
					}
				}
			}
			continue
		}
		n.commitCtx.Round = b.Round
		n.commitCtx.Proposer = b.Proposer
		n.commitCtx.Cross = false
		for _, tx := range b.SingleTxs {
			n.markCommitted(tx, now)
		}
		n.nm.committedSingle.Add(uint64(len(b.SingleTxs)))
		// If this was our own block, its preplay writes are now durable:
		// shrink the speculative overlay to the remaining pending blocks.
		// The move from overlay to store is value-identical through the
		// speculative reader, so the preplayer's carried tips stay valid.
		// A foreign block's writes, by contrast, change state the carry
		// never saw.
		if b.Proposer == n.cfg.ID {
			n.dropOwnBlock(b.Round)
			// Adaptive batch feedback: this block's propose→commit
			// latency against the target. Over-target commits shrink
			// the batch back toward the floor (see batchController).
			lat := now.Sub(time.Unix(0, b.ProposedUnixNano))
			n.batch.ObserveLatency(lat > n.cfg.BatchLatencyTarget)
		} else {
			n.preplayer.invalidate()
		}
	}
	for i := range res.cross {
		c := &res.cross[i]
		if c.failed {
			continue
		}
		n.commitCtx.Round = c.round
		n.commitCtx.Proposer = c.proposer
		n.commitCtx.Cross = true
		n.markCommitted(c.tx, now)
		n.nm.committedCross.Add(1)
	}
	// Deterministic failures resolve too, after the commits — the
	// order WAL recovery replays the merged note in.
	for i := range res.cross {
		if res.cross[i].failed {
			n.dedup.Mark(res.cross[i].tx)
		}
	}
	if len(res.cross) > 0 {
		// Cross-shard writes land outside the preplay stream; the next
		// preplay must re-read through the base.
		n.preplayer.invalidate()
	}
	// Every cross-shard copy in the wave is resolved now, executed or
	// filtered; none may wedge the preplay-recovery tracker.
	for _, v := range w.Vertices {
		for _, tx := range v.Block.CrossTxs {
			delete(n.pendingCross, tx.ID())
		}
	}
	// The wave's commit→execute leg: queue wait plus this execution
	// (on a speculation hit, only the install).
	n.nm.stageCommitExecute.Observe(time.Since(committedAt))
	if n.cfg.OnCommitWave != nil {
		n.cfg.OnCommitWave(n.epoch, w.Leader.Round(), now)
	}
	return len(order)
}

// executeSerial is the Tusk baseline: run the block's transactions
// one by one in commit order (no preplay, no parallel validation).
func (n *Node) executeSerial(b *types.Block, now time.Time) {
	all := make([]*types.Transaction, 0, len(b.SingleTxs)+len(b.CrossTxs))
	all = append(all, b.SingleTxs...)
	all = append(all, b.CrossTxs...)
	n.commitCtx.Round = b.Round
	n.commitCtx.Proposer = b.Proposer
	for _, tx := range all {
		if n.dedup.Resolved(tx) {
			continue
		}
		n.commitCtx.Cross = tx.IsCross()
		outs := validate.ExecuteCrossOrdered(n.cfg.Registry, n.baseReader, []*types.Transaction{tx}, 1)
		note := n.newMarkNote()
		if outs[0].Err != nil {
			note.fail(tx)
			n.noteOnly(note.bytes())
			n.dedup.Mark(tx)
			continue
		}
		note.commit(tx)
		n.applyCommit(outs[0].Writes, note.bytes())
		n.markCommitted(tx, now)
	}
}

func (n *Node) markCommitted(tx *types.Transaction, now time.Time) {
	id := tx.ID()
	n.dedup.Mark(tx)
	n.recordCommit(id)
	delete(n.seen, id)
	n.notifyCommitted(tx)
	n.nm.committedTxs.Add(1)
	// End-to-end leg: client submission to this replica's ack.
	if tx.SubmitUnixNano > 0 {
		n.nm.stageSubmitAck.Observe(now.Sub(time.Unix(0, tx.SubmitUnixNano)))
	}
	if n.cfg.OnCommitTx != nil {
		n.cfg.OnCommitTx(tx, now)
	}
}

// dropOwnBlock removes a committed (or abandoned) own block from the
// pending list and rebuilds the speculative overlay from what remains.
func (n *Node) dropOwnBlock(round types.Round) {
	keep := n.ownBlocks[:0]
	for _, ob := range n.ownBlocks {
		if ob.round != round {
			keep = append(keep, ob)
		}
	}
	n.ownBlocks = keep
	n.spec = make(map[types.Key]types.Value, len(n.spec))
	for _, ob := range n.ownBlocks {
		for _, w := range ob.writes {
			n.spec[w.Key] = w.Value
		}
	}
}

// reconfigure performs the non-blocking DAG transition (§6): a new
// DAG starts at the deterministic ending round every honest replica
// derives from the same committed Shift quorum; shard assignments
// rotate; uncommitted transactions are dropped for clients to
// resubmit. The outgoing state is first captured as the transition's
// snapshot — the committed sequence position is deterministic here, so
// every honest replica records a bit-identical snapshot, which is what
// lets a replica stranded across this transition authenticate one
// later with f+1 matching digests (see snapshot.go).
//
// The transition is itself a commit-path event: the idle-session
// sweep (Config.SessionIdleEpochs) runs here, before the capture, so
// the snapshot carries the swept session set — and on a durable
// backend the transition is journaled so a restarted replica resumes
// in this epoch with the same sweep applied.
func (n *Node) reconfigure() {
	n.noteOnly(transitionNote(n.epoch + 1))
	n.dedup.ExpireIdle(n.cfg.SessionIdleEpochs)
	n.captureSnapshot(n.epoch + 1)
	n.nm.reconfigurations.Add(1)
	// a = the epoch being entered.
	n.trace(metrics.EvReconfig, 0, uint64(n.epoch+1), 0)
	n.transition(n.epoch+1, true)
}

// transition moves this replica into newEpoch, discarding the current
// DAG and unclaiming uncommitted work. Shared by the in-band Shift
// transition (reconfigure) and the cross-epoch snapshot jump
// (installSnapshot); only the former reports through OnReconfig, so
// observers counting committee reconfigurations never conflate them
// with one replica's catch-up jumps (those surface as
// Stats.EpochJumps).
func (n *Node) transition(newEpoch types.Epoch, reconfig bool) {
	dropped := uint64(len(n.txQueue))
	// Unclaim every uncommitted transaction — queued or already
	// proposed into the dying DAG — so client resubmissions are
	// accepted by whichever proposer now owns the shard. Committed
	// IDs stay deduplicated via n.dedup. Both the queue and this
	// node's uncommitted in-flight blocks get a negative-ack — the
	// OnRejectTx callback for in-process clients and a wire MsgTxNack
	// for gateway clients: their transactions die with the epoch, and
	// without the ack each would stall its client until the retry
	// timer (the ROADMAP's discarded-block tail latency).
	rejected := n.txQueue
	for _, d := range n.ownPending {
		if b, ok := n.pendingBlocks[d]; ok {
			rejected = append(rejected, b.SingleTxs...)
			rejected = append(rejected, b.CrossTxs...)
		}
	}
	n.seen = make(map[types.Digest]time.Time)
	n.txQueue = nil
	n.resetEpochState(newEpoch)
	seen := make(map[types.Digest]bool, len(rejected))
	for _, tx := range rejected {
		id := tx.ID()
		if n.dedup.Resolved(tx) || seen[id] {
			continue
		}
		seen[id] = true
		n.nackPending(tx, gateway.NackEpochEnded)
		if n.cfg.OnRejectTx != nil {
			n.cfg.OnRejectTx(tx)
		}
	}

	n.nm.droppedAtReconfig.Add(dropped)
	n.nm.epoch.Set(int64(n.epoch))
	if reconfig && n.cfg.OnReconfig != nil {
		n.cfg.OnReconfig(n.epoch, time.Now())
	}
	// Replay messages that arrived early for the new epoch.
	future := n.futureMsgs
	n.futureMsgs = nil
	n.propose()
	for _, m := range future {
		n.handle(m)
	}
}
