package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"thunderbolt/internal/metrics"
	"thunderbolt/internal/node"
	"thunderbolt/internal/workload"
)

// subWindow is the length of the sub-windows the measured window is
// split into; the end-to-end figures are medians over sub-windows, so
// a passing stall on a shared host moves one sub-window, not the
// result.
const subWindow = 2 * time.Second

// loadTail keeps load running briefly after the measured window, so
// the window's last requests commit under the same load as the rest.
const loadTail = 500 * time.Millisecond

// run is one committee's life: set-up, warm-up, the measured window,
// drain and the correctness gate.
type run struct {
	s       spec
	seconds time.Duration
	slice   time.Duration // sub-window length
	traced  bool

	setup  []float64 // seconds, one per set-up
	out    outcome
	late   []float64 // ms, how late the open-loop generator sent each measured request
	warmup time.Duration

	// Totals over the measured window, and per sub-window.
	cpu        time.Duration
	mallocs    uint64
	subCPU     []time.Duration
	subMallocs []uint64
	heapLive   uint64

	rejects             int64
	stats0, stats1      []node.Stats
	stages              map[string]metrics.HistogramSnapshot
	layers              layerCounts
	waves               []time.Time
	spans, spansDropped int64
}

func generator(s spec, seed int64, client uint64) *workload.Generator {
	return workload.NewGenerator(workload.Config{
		Accounts: s.Accounts, Shards: replicas,
		Theta: s.Theta, ReadRatio: s.ReadRatio, Conserving: true,
		Seed: seed, Client: client,
	})
}

// clientSeed derives each client's stream from the run's seed.
func clientSeed(seed int64, client int) int64 { return seed*1_000_003 + int64(client) }

func runOnce(s spec, seed int64, seconds time.Duration, traced bool, setups int, workdir string, spanPath string) (*run, error) {
	r := &run{s: s, seconds: seconds, traced: traced}
	c, spans, err := r.setUp(seed, setups, workdir)
	if err != nil {
		return nil, err
	}
	defer c.stop()

	loadStart := time.Now()
	var win window
	var loadWG sync.WaitGroup
	if s.Rate > 0 {
		loadWG.Add(1)
		go func() {
			defer loadWG.Done()
			r.late = openLoop(c, s, seed, loadStart, &win)
		}()
	} else {
		for cl := 0; cl < s.Clients; cl++ {
			gen := generator(s, clientSeed(seed, cl), clientSession+uint64(cl))
			loadWG.Add(1)
			go func() {
				defer loadWG.Done()
				closedClient(c, gen, &win)
			}()
		}
	}
	for time.Since(loadStart) < s.MaxWarmup &&
		(time.Since(loadStart) < s.MinWarmup || c.nodes[0].Stats().RoundsProposed < s.WarmRounds) {
		time.Sleep(20 * time.Millisecond)
	}
	r.warmup = time.Since(loadStart)
	r.measure(c, &win, spans)

	loadWG.Wait()
	if err := r.drain(c); err != nil {
		return nil, err
	}
	c.stop()
	if spans != nil {
		r.spans, r.spansDropped = spans.recorded(), spans.dropped.Load()
		if err := spans.write(spanPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return r, nil
}

// setUp builds the committee setups times, each up to its first
// commit, and keeps the last one running.
func (r *run) setUp(seed int64, setups int, workdir string) (*committee, *spanLog, error) {
	var spans *spanLog
	var l *layers
	if r.traced {
		spans = newSpanLog(1 << 20)
		l = newLayers(replicas, spans)
	}
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		c, err := newCommittee(r.s, l, filepath.Join(workdir, fmt.Sprintf("committee-%d", i)))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		c.start()
		if err := c.probe(generator(r.s, clientSeed(seed, -1), probeSession).Next(), 30*time.Second); err != nil {
			c.stop()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if i == setups-1 {
			return c, spans, nil
		}
		c.stop()
	}
	return nil, nil, errors.New("set-up: no committee built")
}

// measure opens the measured window and records the counters at its
// edges and at every sub-window boundary.
func (r *run) measure(c *committee, win *window, spans *spanLog) {
	n := max(1, int(r.seconds/subWindow))
	r.slice = r.seconds / time.Duration(n)
	// The window opens a little in the future, so no request sent
	// before the bounds are published can be due inside it.
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(r.seconds)
	c.tr.setWindow(start, r.slice, n)
	win.set(start, end, end.Add(loadTail))
	time.Sleep(time.Until(start))
	if spans != nil {
		spans.arm(start)
	}
	r.stats0 = nodeStats(c)
	stages0 := stageSnapshots(c)
	var layers0 layerCounts
	if c.l != nil {
		layers0 = c.l.snapshot()
	}
	cpuAt, mallocsAt := []time.Duration{cpuTime()}, []uint64{mallocs()}
	for k := 1; k <= n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * r.slice)))
		cpuAt, mallocsAt = append(cpuAt, cpuTime()), append(mallocsAt, mallocs())
		r.subCPU = append(r.subCPU, cpuAt[k]-cpuAt[k-1])
		r.subMallocs = append(r.subMallocs, mallocsAt[k]-mallocsAt[k-1])
	}
	r.cpu = cpuAt[n] - cpuAt[0]
	r.mallocs = mallocsAt[n] - mallocsAt[0]
	r.stats1 = nodeStats(c)
	r.stages = stageSnapshots(c)
	for name, s0 := range stages0 {
		r.stages[name] = subHist(r.stages[name], s0)
	}
	if c.l != nil {
		r.layers = c.l.snapshot().sub(layers0)
	}
	if spans != nil {
		spans.disarm()
	}
	c.wavesMu.Lock()
	for _, w := range c.waves {
		if win.contains(w) {
			r.waves = append(r.waves, w)
		}
	}
	c.wavesMu.Unlock()
}

// drain waits for the measured requests and the replicas to settle,
// takes the live heap, and runs the correctness gate.
func (r *run) drain(c *committee) error {
	c.tr.waitObserved(time.Now().Add(r.s.Timeout))
	if err := c.settle(30 * time.Second); err != nil {
		return err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapLive = ms.HeapAlloc
	r.rejects = c.rejects.Load()
	r.out = c.tr.outcome(r.s.Timeout)
	if r.out.winCommits == 0 {
		return errors.New("no transaction committed in the measured window")
	}
	return gate(c, r.out)
}

func gate(c *committee, o outcome) error {
	in := gateInput{
		stores: c.stores, union: o.union, accounts: c.s.Accounts,
		genesis: 2 * int64(c.s.Accounts) * c.s.InitBalance,
	}
	for _, sum := range c.perNode {
		in.sums = append(in.sums, sum.load())
	}
	return checkGate(in)
}

// window holds the measured window's bounds once warm-up has ended;
// load generators read it concurrently.
type window struct{ start, end, stop atomic.Int64 }

func (w *window) set(start, end, stop time.Time) {
	w.start.Store(start.UnixNano())
	w.end.Store(end.UnixNano())
	w.stop.Store(stop.UnixNano())
}

func (w *window) contains(t time.Time) bool {
	start := w.start.Load()
	return start != 0 && t.UnixNano() >= start && t.UnixNano() < w.end.Load()
}

// stopped reports whether load generation is over at t.
func (w *window) stopped(t time.Time) bool {
	stop := w.stop.Load()
	return stop != 0 && t.UnixNano() >= stop
}

// closedClient sends its next request only after the previous one
// committed or timed out.
func closedClient(c *committee, gen *workload.Generator, win *window) {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		now := time.Now()
		if win.stopped(now) {
			return
		}
		tx := gen.Next()
		tx.SubmitUnixNano = now.UnixNano()
		req := c.tr.track(tx, now, win.contains(now), true)
		if err := c.submit(tx); err != nil {
			return
		}
		timer.Reset(c.s.Timeout)
		select {
		case <-req.done:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
		}
	}
}

// openLoop sends requests on a fixed schedule from one goroutine,
// whatever the committee's progress, and returns how late it sent
// each measured request. Requests are timed from their due time.
func openLoop(c *committee, s spec, seed int64, start time.Time, win *window) []float64 {
	gen := generator(s, clientSeed(seed, 0), clientSession)
	var late []float64
	interval := float64(time.Second) / s.Rate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if win.stopped(due) {
			return late
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		measured := win.contains(due)
		if measured {
			late = append(late, float64(now.Sub(due))/1e6)
		}
		tx := gen.Next()
		tx.SubmitUnixNano = now.UnixNano()
		c.tr.track(tx, due, measured, false)
		_ = c.submit(tx)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func nodeStats(c *committee) []node.Stats {
	out := make([]node.Stats, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Stats()
	}
	return out
}

func stageSnapshots(c *committee) map[string]metrics.HistogramSnapshot {
	out := make(map[string]metrics.HistogramSnapshot, len(metrics.StageNames))
	for _, name := range metrics.StageNames {
		var merged metrics.HistogramSnapshot
		for _, n := range c.nodes {
			merged.Merge(n.Metrics().HistogramSnapshotOf(name))
		}
		out[name] = merged
	}
	return out
}

func subHist(a, b metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	for i := range a.Buckets {
		a.Buckets[i] -= b.Buckets[i]
	}
	a.Count -= b.Count
	a.SumNanos -= b.SumNanos
	return a
}

func waveIntervals(waves []time.Time) []float64 {
	sort.Slice(waves, func(i, j int) bool { return waves[i].Before(waves[j]) })
	var out []float64
	for i := 1; i < len(waves); i++ {
		out = append(out, float64(waves[i].Sub(waves[i-1]))/1e6)
	}
	return out
}
