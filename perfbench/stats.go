package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// histogram is a lock-free log-linear duration histogram: 16
// sub-buckets per power of two, so a quantile is within 6.25%.
type histogram struct {
	b [histSize]atomic.Uint64
}

const (
	histSub  = 16
	histSize = 64 * histSub
)

type histSnap [histSize]uint64

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // ≥ 4
	sub := int(uint64(ns)>>(uint(exp)-4)) & (histSub - 1)
	return (exp-3)*histSub + sub
}

// histLower is the smallest duration in bucket i.
func histLower(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	exp := i/histSub + 3
	sub := i % histSub
	return float64(uint64(histSub+sub) << uint(exp-4))
}

func (h *histogram) observe(d time.Duration) { h.b[histIndex(int64(d))].Add(1) }

func (h *histogram) snapshot() histSnap {
	var s histSnap
	for i := range s {
		s[i] = h.b[i].Load()
	}
	return s
}

func (s histSnap) sub(o histSnap) histSnap {
	for i := range s {
		s[i] -= o[i]
	}
	return s
}

// quantile returns the lower edge of the bucket holding the q-th
// observation, in nanoseconds; 0 when empty.
func (s histSnap) quantile(q float64) float64 {
	var n uint64
	for _, c := range s {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q*float64(n))) - 1
	if q*float64(n) < 1 {
		rank = 0
	}
	var seen uint64
	for i, c := range s {
		seen += c
		if seen > rank {
			return histLower(i)
		}
	}
	return histLower(histSize - 1)
}

// percentile is one reported latency percentile: the requested
// percentile when at least ten samples lie beyond it, otherwise the
// highest percentile that has ten beyond it.
type percentile struct {
	Want    float64 `json:"want"`
	Used    float64 `json:"used"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// pickPercentile reads sorted samples by nearest rank. Misses (+Inf)
// sort last; when the percentile lands on one it reads as miss.
func pickPercentile(sorted []float64, want, miss float64) (percentile, error) {
	n := len(sorted)
	p := percentile{Want: want, Used: want, Samples: n}
	idx := int(math.Ceil(want*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < 10 {
		idx = n - 11
		if idx < 0 {
			return p, fmt.Errorf("only %d latency samples: need at least 11", n)
		}
		p.Used = float64(idx+1) / float64(n)
	}
	p.Value = sorted[idx]
	if math.IsInf(p.Value, 1) {
		p.Value = miss
	}
	return p, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// --- spans ---

type spanKind uint8

const (
	spanSend spanKind = iota
	spanSign
	spanVerify
	spanApply
	spanSync
	spanContract
)

var spanNames = [...]string{"transport.send", "crypto.sign", "crypto.verify", "storage.apply", "storage.sync", "contract.execute"}

type span struct {
	start int64 // ns since the log's origin
	dur   int64
	n     int64 // items the call handled: frames, signatures, records
	kind  spanKind
}

// spanLog keeps the traced run's spans in a fixed in-memory buffer
// and writes them out when the run ends. Recording starts at arm, so
// the buffer holds the measured window; spans beyond its capacity are
// counted and dropped.
type spanLog struct {
	origin  time.Time
	armed   atomic.Bool
	next    atomic.Int64
	dropped atomic.Int64
	buf     []span
}

func newSpanLog(capacity int) *spanLog { return &spanLog{buf: make([]span, capacity)} }

func (l *spanLog) arm(origin time.Time) {
	l.origin = origin
	l.armed.Store(true)
}

func (l *spanLog) disarm() { l.armed.Store(false) }

func (l *spanLog) add(k spanKind, start time.Time, d time.Duration, n int64) {
	if l == nil || !l.armed.Load() {
		return
	}
	i := l.next.Add(1) - 1
	if i >= int64(len(l.buf)) {
		l.dropped.Add(1)
		return
	}
	l.buf[i] = span{start: int64(start.Sub(l.origin)), dur: int64(d), n: n, kind: k}
}

func (l *spanLog) recorded() int64 {
	return min(l.next.Load(), int64(len(l.buf)))
}

// write dumps the spans as JSON lines. Call only after disarm and
// after every traced layer has stopped.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.buf[:l.recorded()] {
		fmt.Fprintf(w, "{\"span\":%q,\"start_ns\":%d,\"dur_ns\":%d,\"n\":%d}\n", spanNames[s.kind], s.start, s.dur, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
