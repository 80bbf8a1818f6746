package node

import (
	"time"

	"thunderbolt/internal/ce"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
)

// Speculative execution of certified blocks (the certify→commit
// overlap). The commit path spends most of its latency waiting for the
// Tusk commit rule to release blocks that are already certified. This
// file fills that wait: the node predicts the next commit waves from
// the anchor chain (tusk.PredictWave), runs the wave function
// (runWave) on them at once against a speculative view layered over
// the committed tip, and at commit time installs the precomputed
// outcome (installWave) when the prediction matched — or discards
// everything, after which the wave runs the same function on the
// committed view and installs it immediately.
//
// The contract:
//
//   - predict: a certified leader vertex's wave is linearized exactly
//     as commitLeader would, with earlier queued predictions treated
//     as committed, so stacked predictions compose like consecutive
//     commits. Linearize is stable once a vertex is in the store, so
//     a prediction only misses when the anchor-chain walk reorders
//     leaders (skipped or late-arriving leaders, equivocation fallout).
//   - execute: runWave reads through specOverlay (pending speculative
//     writes) over the committed store and resolves identities in a
//     dedup view holding the marks of the predictions queued ahead.
//     Nothing escapes: no store writes, no dedup marks, no client acks.
//   - confirm: at commit, the canonical wave must match the predicted
//     wave vertex-for-vertex AND every identity the prediction
//     resolves must still be unresolved (specStillFresh). Then
//     installWave commits the outcome exactly as it commits a cold one.
//   - rollback: any mismatch flushes the entire prediction queue and
//     rolls the overlay back — an O(live-entries) reset — and the
//     canonical wave executes cold. Speculative state lives only in
//     this file's structures, so a rollback cannot leak by
//     construction.
//
// Why a miss must flush everything: predictions execute against the
// committed tip plus earlier predictions. Once the canonical order
// diverges — even for one wave — the store evolves differently than
// every queued prediction assumed, and outcomes computed on the stale
// view are unusable. Flushing restores the invariant that the store
// only ever mutates through installed predictions or cold execution
// after a flush, which is what makes the speculative view at
// execution time value-identical to the committed view at install
// time on the all-hit path.

// specWave is one predicted commit wave and its precomputed outcome.
type specWave struct {
	wave        tusk.CommitWave
	overlayWave uint64 // SpecOverlay wave id of this wave's writes
	res         waveResult
}

// resetSpec discards all speculative state — queued predictions,
// overlay writes, claimed vertices. Called from resetEpochState:
// predictions bind to one epoch's DAG and die with it.
func (n *Node) resetSpec() {
	if n.specOverlay == nil {
		n.specOverlay = ce.NewSpecOverlay()
		n.specVerts = make(map[types.Digest]bool)
		return
	}
	for i := range n.specQ {
		n.specQ[i] = specWave{} // release vertex references
	}
	n.specQ = n.specQ[:0]
	n.specOverlay.Rollback()
	clear(n.specVerts)
}

// specBaseRead reads through pending speculative writes first, then
// committed state — the base reader speculative execution runs under.
func (n *Node) specBaseRead(k types.Key) types.Value {
	if v, ok := n.specOverlay.Get(k); ok {
		return v
	}
	return n.baseRead(k)
}

// specVertClaimed reports whether a vertex is claimed by a queued
// prediction — PredictWave's "already committed" extension.
func (n *Node) specVertClaimed(d types.Digest) bool { return n.specVerts[d] }

// nextSpecLeaderRound returns the first leader round not yet covered
// by a commit or a queued prediction.
func (n *Node) nextSpecLeaderRound() types.Round {
	r := n.committer.LastLeaderRound()
	if len(n.specQ) > 0 {
		if lr := n.specQ[len(n.specQ)-1].wave.Leader.Round(); lr > r {
			r = lr
		}
	}
	if tusk.LeaderRound(r) {
		return r + 2
	}
	return r + 1
}

// drainSpec is the run loop's idle work: after every committed wave
// has executed (drainExec precedes it, so execQ is empty and the
// store sits at the committed tip), extend the prediction queue up to
// specDepth and execute each new prediction. One prediction per
// consecutive leader round whose leader vertex is already certified
// into the DAG; it stops at the first missing leader — predicting
// past a hole would bake in the guess that the hole's leader never
// commits, which is exactly the reorder that forces a flush when
// wrong.
func (n *Node) drainSpec() {
	for len(n.specQ) < n.specDepth {
		r := n.nextSpecLeaderRound()
		leader, ok := n.dagStore.Get(r, tusk.LeaderOf(n.epoch, r, n.n))
		if !ok {
			return
		}
		w := n.committer.PredictWave(leader, n.specClaimFn)
		for _, v := range w.Vertices {
			n.specVerts[v.Cert.Digest()] = true
		}
		n.specQ = append(n.specQ, n.execSpecWave(w))
	}
}

// execSpecWave runs one predicted wave through the wave function
// against the speculative view, folding its writes into the overlay.
// Its dedup view is the live dedup plus the marks of every prediction
// queued ahead of it, in install order.
func (n *Node) execSpecWave(w tusk.CommitWave) specWave {
	// a = vertices in the predicted wave.
	n.trace(metrics.EvSpecStart, w.Leader.Round(), uint64(len(w.Vertices)), 0)
	sw := specWave{wave: w, overlayWave: n.specOverlay.BeginWave()}
	wave := sw.overlayWave
	fold := func(k types.Key, v types.Value) { n.specOverlay.Set(k, v, wave) }
	n.waveDedup.Reset()
	for i := range n.specQ {
		n.specQ[i].res.markOrder(n.waveDedup)
	}
	sw.res = n.runWave(w, n.waveDedup, n.specReader, fold)
	// The reclaimed slice of the certify→commit wait: certification to
	// speculative-results-ready, per block (same stamp discipline as
	// the cold stage histograms).
	done := time.Now()
	for _, v := range w.Vertices {
		if !v.Block.Stamps.Certified.IsZero() {
			n.nm.stageCertifySpecDone.Observe(done.Sub(v.Block.Stamps.Certified))
		}
	}
	return sw
}

// trySpecInstall is drainExec's fast path: if the canonical wave
// matches the oldest prediction and the precomputed outcome is still
// valid, install it and skip execution. Returns false when the wave
// must execute cold — after flushing all predictions.
func (n *Node) trySpecInstall(w tusk.CommitWave, committedAt, now time.Time) bool {
	if len(n.specQ) == 0 {
		return false
	}
	sw := &n.specQ[0]
	// A different wave than predicted (late leader, skipped leader, or
	// a divergent linearization) means every queued prediction built
	// on the wrong order; so does a prediction whose dedup assumptions
	// no longer hold.
	if sw.wave.Leader != w.Leader || !sameVertices(sw.wave.Vertices, w.Vertices) ||
		!n.specStillFresh(sw) || (n.cfg.SpecVerify && !n.specVerifyWave(sw)) {
		n.specMiss(w)
		return false
	}
	writes := n.installWave(w, &sw.res, committedAt, now)
	n.specOverlay.Confirm(sw.overlayWave)
	n.nm.specHits.Add(1)
	// a = vertices installed, b = coalesced store writes.
	n.trace(metrics.EvSpecConfirm, w.Leader.Round(), uint64(len(w.Vertices)), uint64(writes))
	n.popSpec()
	return true
}

// sameVertices compares predicted and canonical linearizations by
// vertex identity. Pointer equality is exact here: both lists come
// from the same DAG store, which holds one vertex per slot.
func sameVertices(a, b []*dag.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// specStillFresh re-checks the prediction's dedup assumptions against
// the live dedup at install time: replayed in install order, every
// identity the prediction resolves must still be unresolved when
// reached. The execution view already held the marks of the
// predictions installed since, so on the all-hit path this fails only
// if the dedup moved by another path — a safety net, not a miss
// source.
func (n *Node) specStillFresh(sw *specWave) bool {
	n.waveDedup.Reset()
	return sw.res.markOrder(n.waveDedup)
}

// specVerifyWave is the runtime differential check (Config.SpecVerify):
// run the wave function on the committed view — exactly the cold
// path's call — and demand the speculative outcome is bit-identical.
// On the hit path the speculative view is value-identical to the
// committed view, so any divergence is a speculation bug, not a
// legitimate reorder.
func (n *Node) specVerifyWave(sw *specWave) bool {
	cold := n.runCommitted(sw.wave)
	return sameResults(&sw.res, &cold)
}

func sameResults(a, b *waveResult) bool {
	if len(a.blocks) != len(b.blocks) || len(a.cross) != len(b.cross) {
		return false
	}
	for i := range a.blocks {
		x, y := &a.blocks[i], &b.blocks[i]
		if x.b != y.b || x.ok != y.ok || !writesEqual(x.writes, y.writes) {
			return false
		}
	}
	for i := range a.cross {
		x, y := &a.cross[i], &b.cross[i]
		if x.tx != y.tx || x.failed != y.failed || !writesEqual(x.writes, y.writes) {
			return false
		}
	}
	return true
}

func writesEqual(a, b []types.RWRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !a[i].Value.Equal(b[i].Value) {
			return false
		}
	}
	return true
}

// specMiss discards every queued prediction: the canonical order
// diverged, so all speculative state — built on the predicted order —
// is invalid. The overlay rolls back in O(live entries); nothing else
// holds speculative data, so nothing else needs undoing.
func (n *Node) specMiss(w tusk.CommitWave) {
	var wasted uint64
	for i := range n.specQ {
		wasted += uint64(n.specQ[i].res.txs)
	}
	n.nm.specMisses.Add(uint64(len(n.specQ)))
	n.nm.specWastedTxs.Add(wasted)
	// a = flushed predictions, b = wasted speculative transactions.
	n.trace(metrics.EvSpecRollback, w.Leader.Round(), uint64(len(n.specQ)), wasted)
	for i := range n.specQ {
		n.specQ[i] = specWave{}
	}
	n.specQ = n.specQ[:0]
	n.specOverlay.Rollback()
	clear(n.specVerts)
}

// popSpec retires the installed oldest prediction, releasing its
// vertex claims so future predictions and GC see only live
// speculative state.
func (n *Node) popSpec() {
	for _, v := range n.specQ[0].wave.Vertices {
		delete(n.specVerts, v.Cert.Digest())
	}
	n.specQ[0] = specWave{}
	n.specQ = n.specQ[1:]
}
