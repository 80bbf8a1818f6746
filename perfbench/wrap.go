package main

import (
	"sync/atomic"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
)

// layers holds the counters the traced run's wrappers record at each
// layer's public interface. Every field is updated atomically from
// whatever goroutine calls into the layer.
type layers struct {
	committee int
	spans     *spanLog

	sends, frames, sendBytes, sendErrs, sendBusy atomic.Int64

	signs, verifies, batchCalls, batchSigs, cryptoBusy atomic.Int64

	applies, records, applyBusy, gets, syncs atomic.Int64
	applyLat                                 histogram

	calls, callErrs, callBusy atomic.Int64
}

func newLayers(committee int, spans *spanLog) *layers {
	return &layers{committee: committee, spans: spans}
}

// layerCounts is a plain copy of the counters; the difference of two
// copies is the work done between them.
type layerCounts struct {
	Sends, Frames, SendBytes, SendErrs, SendBusy       int64
	Signs, Verifies, BatchCalls, BatchSigs, CryptoBusy int64
	Applies, Records, ApplyBusy, Gets, Syncs           int64
	Calls, CallErrs, CallBusy                          int64
	ApplyLat                                           histSnap
}

func (l *layers) snapshot() layerCounts {
	return layerCounts{
		Sends: l.sends.Load(), Frames: l.frames.Load(), SendBytes: l.sendBytes.Load(),
		SendErrs: l.sendErrs.Load(), SendBusy: l.sendBusy.Load(),
		Signs: l.signs.Load(), Verifies: l.verifies.Load(), BatchCalls: l.batchCalls.Load(), BatchSigs: l.batchSigs.Load(),
		CryptoBusy: l.cryptoBusy.Load(),
		Applies:    l.applies.Load(), Records: l.records.Load(), ApplyBusy: l.applyBusy.Load(),
		Gets: l.gets.Load(), Syncs: l.syncs.Load(),
		Calls: l.calls.Load(), CallErrs: l.callErrs.Load(), CallBusy: l.callBusy.Load(),
		ApplyLat: l.applyLat.snapshot(),
	}
}

func (a layerCounts) sub(b layerCounts) layerCounts {
	return layerCounts{
		Sends: a.Sends - b.Sends, Frames: a.Frames - b.Frames, SendBytes: a.SendBytes - b.SendBytes,
		SendErrs: a.SendErrs - b.SendErrs, SendBusy: a.SendBusy - b.SendBusy,
		Signs: a.Signs - b.Signs, Verifies: a.Verifies - b.Verifies, BatchCalls: a.BatchCalls - b.BatchCalls, BatchSigs: a.BatchSigs - b.BatchSigs,
		CryptoBusy: a.CryptoBusy - b.CryptoBusy,
		Applies:    a.Applies - b.Applies, Records: a.Records - b.Records, ApplyBusy: a.ApplyBusy - b.ApplyBusy,
		Gets: a.Gets - b.Gets, Syncs: a.Syncs - b.Syncs,
		Calls: a.Calls - b.Calls, CallErrs: a.CallErrs - b.CallErrs, CallBusy: a.CallBusy - b.CallBusy,
		ApplyLat: a.ApplyLat.sub(b.ApplyLat),
	}
}

// --- transport ---

type tracedTransport struct {
	transport.Transport
	l *layers
}

func (t tracedTransport) Send(to types.ReplicaID, mt transport.MsgType, payload []byte) error {
	start := time.Now()
	err := t.Transport.Send(to, mt, payload)
	t.l.sent(start, 1, len(payload), err)
	return err
}

// Broadcast counts one frame per committee member: the transport
// delivers the payload to every replica, self included.
func (t tracedTransport) Broadcast(mt transport.MsgType, payload []byte) error {
	start := time.Now()
	err := t.Transport.Broadcast(mt, payload)
	t.l.sent(start, t.l.committee, len(payload), err)
	return err
}

func (l *layers) sent(start time.Time, frames, size int, err error) {
	d := time.Since(start)
	l.sends.Add(1)
	l.frames.Add(int64(frames))
	l.sendBytes.Add(int64(frames * size))
	l.sendBusy.Add(int64(d))
	if err != nil {
		l.sendErrs.Add(1)
	}
	l.spans.add(spanSend, start, d, int64(frames))
}

// --- crypto ---

type tracedSigner struct {
	crypto.Signer
	l *layers
}

func (s tracedSigner) Sign(d types.Digest) []byte {
	start := time.Now()
	sig := s.Signer.Sign(d)
	dur := time.Since(start)
	s.l.signs.Add(1)
	s.l.cryptoBusy.Add(int64(dur))
	s.l.spans.add(spanSign, start, dur, 1)
	return sig
}

type tracedVerifier struct {
	inner crypto.Verifier
	l     *layers
}

func (v tracedVerifier) Verify(r types.ReplicaID, d types.Digest, sig []byte) bool {
	start := time.Now()
	ok := v.inner.Verify(r, d, sig)
	v.l.verified(start, 1)
	return ok
}

// tracedBatchVerifier keeps the batch path of an inner verifier that
// has one: node wraps the verifier in crypto.CachingVerifier, which
// type-asserts crypto.BatchVerifier, so hiding it would change what
// the traced run executes.
type tracedBatchVerifier struct {
	tracedVerifier
	batch crypto.BatchVerifier
}

func (v tracedBatchVerifier) VerifyBatch(signers []types.ReplicaID, d types.Digest, sigs [][]byte) []bool {
	start := time.Now()
	out := v.batch.VerifyBatch(signers, d, sigs)
	v.l.batchCalls.Add(1)
	v.l.batchSigs.Add(int64(len(sigs)))
	v.l.verified(start, len(sigs))
	return out
}

func (l *layers) verified(start time.Time, n int) {
	d := time.Since(start)
	l.verifies.Add(int64(n))
	l.cryptoBusy.Add(int64(d))
	l.spans.add(spanVerify, start, d, int64(n))
}

func (l *layers) verifier(v crypto.Verifier) crypto.Verifier {
	tv := tracedVerifier{inner: v, l: l}
	if bv, ok := v.(crypto.BatchVerifier); ok {
		return tracedBatchVerifier{tracedVerifier: tv, batch: bv}
	}
	return tv
}

// --- storage ---

type tracedStore struct {
	storage.Backend
	l *layers
}

func (s tracedStore) Get(k types.Key) (types.Value, bool) {
	s.l.gets.Add(1)
	return s.Backend.Get(k)
}

func (s tracedStore) Apply(writes []types.RWRecord) uint64 {
	start := time.Now()
	seq := s.Backend.Apply(writes)
	s.l.applied(start, len(writes))
	return seq
}

func (s tracedStore) ApplyNote(writes []types.RWRecord, note []byte) uint64 {
	start := time.Now()
	seq := s.Backend.ApplyNote(writes, note)
	s.l.applied(start, len(writes))
	return seq
}

func (s tracedStore) Sync() error {
	start := time.Now()
	err := s.Backend.Sync()
	d := time.Since(start)
	s.l.syncs.Add(1)
	s.l.spans.add(spanSync, start, d, 1)
	return err
}

func (l *layers) applied(start time.Time, records int) {
	d := time.Since(start)
	l.applies.Add(1)
	l.records.Add(int64(records))
	l.applyBusy.Add(int64(d))
	l.applyLat.observe(d)
	l.spans.add(spanApply, start, d, int64(records))
}

// tracedDurable keeps storage.Recoverable, which node.New
// type-asserts to recover and journal its dedup state through the
// backend.
type tracedDurable struct {
	tracedStore
	storage.Recoverable
}

func (l *layers) store(b storage.Backend) storage.Backend {
	ts := tracedStore{Backend: b, l: l}
	if rec, ok := b.(storage.Recoverable); ok {
		return tracedDurable{tracedStore: ts, Recoverable: rec}
	}
	return ts
}

// --- contracts ---

// registry returns a registry whose every contract is reg's contract
// of the same name, timed and counted.
func (l *layers) registry(reg *contract.Registry) *contract.Registry {
	return wrapRegistry(reg, func(c contract.Contract) func(contract.State, [][]byte) error {
		return func(st contract.State, args [][]byte) error {
			start := time.Now()
			err := c.Execute(st, args)
			d := time.Since(start)
			l.calls.Add(1)
			l.callBusy.Add(int64(d))
			if err != nil {
				l.callErrs.Add(1)
			}
			l.spans.add(spanContract, start, d, 1)
			return err
		}
	})
}

func wrapRegistry(reg *contract.Registry, wrap func(contract.Contract) func(contract.State, [][]byte) error) *contract.Registry {
	out := contract.NewRegistry()
	for _, name := range reg.Names() {
		c, _ := reg.Lookup(name)
		out.MustRegister(contract.Func{ContractName: name, Fn: wrap(c)})
	}
	return out
}
