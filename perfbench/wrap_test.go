package main

import (
	"testing"
	"time"

	"thunderbolt/internal/crypto"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
)

// The traced run must execute the same program as the untraced one:
// node wraps the verifier in crypto.CachingVerifier, which takes the
// batch path only when the verifier implements crypto.BatchVerifier.
func TestVerifierWrapperKeepsBatchPath(t *testing.T) {
	for _, name := range []string{"ed25519", "insecure"} {
		scheme, err := crypto.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		signers, v, err := scheme.Committee(replicas, keySeed)
		if err != nil {
			t.Fatal(err)
		}
		l := newLayers(replicas, nil)
		w := l.verifier(v)
		_, innerBatch := v.(crypto.BatchVerifier)
		bw, outerBatch := w.(crypto.BatchVerifier)
		if innerBatch != outerBatch {
			t.Fatalf("%s: inner verifier batch=%v, wrapped batch=%v", name, innerBatch, outerBatch)
		}
		d := types.Digest{1, 2, 3}
		sig := signers[1].Sign(d)
		if !w.Verify(1, d, sig) || w.Verify(2, d, sig) {
			t.Fatalf("%s: wrapped Verify gives wrong verdicts", name)
		}
		if outerBatch {
			got := bw.VerifyBatch([]types.ReplicaID{1, 2}, d, [][]byte{sig, sig})
			if !got[0] || got[1] {
				t.Fatalf("%s: wrapped VerifyBatch = %v", name, got)
			}
			if l.batchCalls.Load() != 1 || l.batchSigs.Load() != 2 {
				t.Fatalf("%s: batch counted as %d calls, %d signatures", name, l.batchCalls.Load(), l.batchSigs.Load())
			}
		}
	}
}

// node.New type-asserts storage.Recoverable to recover and journal its
// dedup state through a durable backend.
func TestStoreWrapperKeepsRecoverable(t *testing.T) {
	l := newLayers(replicas, nil)
	d, err := storage.OpenDurable(storage.DurableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, ok := l.store(d).(storage.Recoverable); !ok {
		t.Fatal("wrapped durable store lost storage.Recoverable")
	}
	mem := l.store(storage.New())
	if _, ok := mem.(storage.Recoverable); ok {
		t.Fatal("wrapped in-memory store claims storage.Recoverable")
	}
	mem.Apply([]types.RWRecord{{Key: "k", Value: types.Value("v")}})
	if v, ok := mem.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("Get through the wrapper = %q, %v", v, ok)
	}
	if l.applies.Load() != 1 || l.records.Load() != 1 || l.gets.Load() != 1 {
		t.Fatalf("counted %d applies, %d records, %d gets", l.applies.Load(), l.records.Load(), l.gets.Load())
	}
}

// A traced committee, every layer wrapped, reaches its first commit on
// both the simulated and the TCP/WAL/ed25519 stack.
func TestTracedCommitteeCommits(t *testing.T) {
	for _, name := range []string{"lan-open", "tcp-wal-closed"} {
		s, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		l := newLayers(replicas, nil)
		c, err := newCommittee(s, l, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c.start()
		err = c.probe(generator(s, 1, probeSession).Next(), 30*time.Second)
		c.stop()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l.calls.Load() == 0 || l.applies.Load() == 0 || l.sends.Load() == 0 || l.signs.Load() == 0 {
			t.Fatalf("%s: a layer saw no calls: contract %d, apply %d, send %d, sign %d",
				name, l.calls.Load(), l.applies.Load(), l.sends.Load(), l.signs.Load())
		}
	}
}
