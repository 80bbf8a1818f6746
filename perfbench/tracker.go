package main

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"thunderbolt/internal/types"
)

// commitSum is an order-independent digest of a set of committed
// transactions: its size and two sums over disjoint slices of the
// transaction IDs. Two replicas that committed the same set, each
// transaction once, have equal sums.
type commitSum struct {
	N, A, B uint64
}

func (s *commitSum) add(id types.Digest) {
	s.N++
	s.A += binary.LittleEndian.Uint64(id[0:8])
	s.B += binary.LittleEndian.Uint64(id[8:16])
}

// atomicSum is a commitSum one replica's commit callback updates while
// the benchmark reads it.
type atomicSum struct{ n, a, b atomic.Uint64 }

func (s *atomicSum) add(id types.Digest) {
	s.a.Add(binary.LittleEndian.Uint64(id[0:8]))
	s.b.Add(binary.LittleEndian.Uint64(id[8:16]))
	s.n.Add(1)
}

func (s *atomicSum) load() commitSum {
	return commitSum{N: s.n.Load(), A: s.a.Load(), B: s.b.Load()}
}

// request is one client transaction as the benchmark sees it.
type request struct {
	id  types.Digest
	due time.Time
	// done is closed at the first commit anywhere when a closed-loop
	// client waits on it; nil otherwise.
	done chan struct{}
	// observed is the first replica commit, when the client learns of
	// it; zero until then. Guarded by tracker.mu.
	observed time.Time
}

// tracker joins client submissions with replica commits.
type tracker struct {
	mu        sync.Mutex
	pending   map[types.Digest]*request
	committed map[types.Digest]struct{}
	union     commitSum
	measured  []*request

	// The measured window is len(subCommits) consecutive sub-windows
	// of length slice, starting at winStart.
	winStart   time.Time
	slice      time.Duration
	subCommits []int64
}

func newTracker() *tracker {
	return &tracker{
		pending:   make(map[types.Digest]*request),
		committed: make(map[types.Digest]struct{}),
	}
}

// track registers tx before it is submitted. measured requests enter
// the latency and failure statistics.
func (t *tracker) track(tx *types.Transaction, due time.Time, measured, wait bool) *request {
	r := &request{id: tx.ID(), due: due}
	if wait {
		r.done = make(chan struct{})
	}
	t.mu.Lock()
	if _, ok := t.committed[r.id]; ok {
		t.mu.Unlock()
		panic("perfbench: transaction tracked after it committed")
	}
	t.pending[r.id] = r
	if measured {
		t.measured = append(t.measured, r)
	}
	t.mu.Unlock()
	return r
}

// onCommit records a replica's commit of id; only the first commit
// anywhere counts.
func (t *tracker) onCommit(id types.Digest, when time.Time) {
	t.mu.Lock()
	if _, dup := t.committed[id]; dup {
		t.mu.Unlock()
		return
	}
	t.committed[id] = struct{}{}
	t.union.add(id)
	if k := t.subWindow(when); k >= 0 {
		t.subCommits[k]++
	}
	r := t.pending[id]
	delete(t.pending, id)
	if r != nil {
		r.observed = when
	}
	t.mu.Unlock()
	if r != nil && r.done != nil {
		close(r.done)
	}
}

// setWindow fixes the measured window: n sub-windows of length slice
// from start. Commits inside it count toward commit_tps.
func (t *tracker) setWindow(start time.Time, slice time.Duration, n int) {
	t.mu.Lock()
	t.winStart, t.slice, t.subCommits = start, slice, make([]int64, n)
	t.mu.Unlock()
}

// subWindow is the index of the sub-window holding at, or -1.
func (t *tracker) subWindow(at time.Time) int {
	if t.subCommits == nil || at.Before(t.winStart) {
		return -1
	}
	k := int(at.Sub(t.winStart) / t.slice)
	if k >= len(t.subCommits) {
		return -1
	}
	return k
}

// waitObserved waits until clients have observed every measured
// request's commit, or until deadline.
func (t *tracker) waitObserved(deadline time.Time) {
	for time.Now().Before(deadline) {
		t.mu.Lock()
		open := 0
		for _, r := range t.measured {
			if r.observed.IsZero() {
				open++
			}
		}
		t.mu.Unlock()
		if open == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// outcome is what the tracker saw of the measured requests.
type outcome struct {
	winCommits int64
	subCommits []int64
	union      commitSum
	// latencies in ms, one per measured request; +Inf marks a miss.
	// subLatencies splits them by the sub-window the request was due in.
	latencies    []float64
	subLatencies [][]float64
	failed       int64
	// unknownAcks counts requests a client saw commit that no replica
	// reported committing.
	unknownAcks int
	requests    []request
}

func (t *tracker) outcome(timeout time.Duration) outcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := outcome{
		subCommits:   append([]int64(nil), t.subCommits...),
		subLatencies: make([][]float64, len(t.subCommits)),
		union:        t.union,
	}
	for _, n := range o.subCommits {
		o.winCommits += n
	}
	for _, r := range t.measured {
		lat := math.Inf(1)
		if d := r.observed.Sub(r.due); !r.observed.IsZero() && d <= timeout {
			lat = float64(d) / 1e6
		} else {
			o.failed++
		}
		o.latencies = append(o.latencies, lat)
		if k := t.subWindow(r.due); k >= 0 {
			o.subLatencies[k] = append(o.subLatencies[k], lat)
		}
	}
	return o
}
