package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"thunderbolt/internal/metrics"
)

// latency returns the p50 and p99 latencies of one list of samples;
// a request not committed within the timeout reads as the timeout.
func (r *run) latency(samples []float64) (p50, p99 percentile, err error) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	miss := float64(r.s.Timeout) / 1e6
	if p50, err = pickPercentile(sorted, 0.50, miss); err != nil {
		return
	}
	p99, err = pickPercentile(sorted, 0.99, miss)
	return
}

func (r *run) tps() float64 { return float64(r.out.winCommits) / r.seconds.Seconds() }

func (r *run) ktx() float64 { return float64(r.out.winCommits) / 1000 }

func (r *run) cpuPerKtx() float64 { return float64(r.cpu) / 1e6 / r.ktx() }

func (r *run) attempted() int64 { return int64(len(r.out.latencies)) }

func resultOf(r *run, ms map[string]metric) result {
	return result{Correct: true, Attempted: r.attempted(), Failed: r.out.failed, Metrics: ms}
}

// endToEnd gives the metrics a user of the committee sees, from an
// untraced run. Rates, latencies and per-transaction costs are medians
// over the sub-windows.
func endToEnd(r *run) (result, map[string]any, error) {
	var tps, p50s, p99s, cpu, allocs []float64
	var pcts []percentile
	for k, n := range r.out.subCommits {
		if n == 0 {
			return result{}, nil, fmt.Errorf("no commit in sub-window %d", k)
		}
		p50, p99, err := r.latency(r.out.subLatencies[k])
		if err != nil {
			return result{}, nil, fmt.Errorf("sub-window %d: %w", k, err)
		}
		tps = append(tps, float64(n)/r.slice.Seconds())
		p50s, p99s = append(p50s, p50.Value), append(p99s, p99.Value)
		pcts = append(pcts, p50, p99)
		cpu = append(cpu, float64(r.subCPU[k])/1e3/float64(n))
		allocs = append(allocs, float64(r.subMallocs[k])/float64(n))
	}
	ms := map[string]metric{
		"commit_tps":     {median(tps), "1/s"},
		"latency_p50_ms": {median(p50s), "ms"},
		"latency_p99_ms": {median(p99s), "ms"},
		"commit_ratio":   {1 - float64(r.out.failed)/float64(r.attempted()), "ratio"},
		"cpu_ms_per_ktx": {median(cpu), "ms"},
		"allocs_per_tx":  {median(allocs), "count"},
		"heap_live_mb":   {float64(r.heapLive) / (1 << 20), "MB"},
		"setup_s":        {median(r.setup), "s"},
	}
	detail := map[string]any{
		"sub_windows": map[string]any{"commit_tps": tps, "latency_p50_ms": p50s, "latency_p99_ms": p99s,
			"cpu_ms_per_ktx": cpu, "allocs_per_tx": allocs, "percentiles": pcts},
		"setup_s":  r.setup,
		"warmup_s": r.warmup.Seconds(),
	}
	return resultOf(r, ms), detail, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantileMS is the nearest-rank q-quantile of xs; 0 when empty.
func quantileMS(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}

// perLayer gives the per-layer metrics of a traced run; plain is an
// untraced run of the same workload and seed, the base of the tracing
// overhead.
func perLayer(t, plain *run) (result, map[string]any, error) {
	p50, p99, err := t.latency(t.out.latencies)
	if err != nil {
		return result{}, nil, err
	}
	commits := float64(t.out.winCommits)
	ktx := t.ktx()
	lc := t.layers
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	var ns, ns0 struct {
		hits, misses, wasted, reexec, converted, rounds, reconfigs, shifts, dropped, committed float64
	}
	for i := range t.stats1 {
		a, b := t.stats0[i], t.stats1[i]
		ns.hits += float64(b.SpecHits - a.SpecHits)
		ns.misses += float64(b.SpecMisses - a.SpecMisses)
		ns.wasted += float64(b.SpecWastedTxs - a.SpecWastedTxs)
		ns.reexec += float64(b.Reexecutions - a.Reexecutions)
		ns.converted += float64(b.ConvertedToCross - a.ConvertedToCross)
		ns.rounds += float64(b.RoundsProposed - a.RoundsProposed)
		ns.shifts += float64(b.ShiftBlocks - a.ShiftBlocks)
		ns.dropped += float64(b.DroppedAtReconfig - a.DroppedAtReconfig)
		ns.committed += float64(b.CommittedTxs - a.CommittedTxs)
		if i == 0 {
			ns0.rounds = float64(b.RoundsProposed - a.RoundsProposed)
			ns0.reconfigs = float64(b.Reconfigurations - a.Reconfigurations)
		}
	}
	intervals := waveIntervals(t.waves)
	secs := t.seconds.Seconds()

	out := map[string]metric{
		"crypto.signs_per_ktx":            {ratio(float64(lc.Signs), ktx), "count"},
		"crypto.verifies_per_ktx":         {ratio(float64(lc.Verifies), ktx), "count"},
		"crypto.busy_ms_per_ktx":          {ratio(ms(lc.CryptoBusy), ktx), "ms"},
		"crypto.verify_batch_mean":        {ratio(float64(lc.BatchSigs), float64(lc.BatchCalls)), "count"},
		"storage.applies_per_ktx":         {ratio(float64(lc.Applies), ktx), "count"},
		"storage.records_per_apply":       {ratio(float64(lc.Records), float64(lc.Applies)), "count"},
		"storage.apply_busy_ms_per_ktx":   {ratio(ms(lc.ApplyBusy), ktx), "ms"},
		"storage.apply_p99_us":            {lc.ApplyLat.quantile(0.99) / 1e3, "us"},
		"storage.gets_per_tx":             {ratio(float64(lc.Gets), commits), "count"},
		"storage.syncs":                   {float64(lc.Syncs), "count"},
		"transport.frames_per_ktx":        {ratio(float64(lc.Frames), ktx), "count"},
		"transport.bytes_per_tx":          {ratio(float64(lc.SendBytes), commits), "B"},
		"transport.send_busy_ms_per_ktx":  {ratio(ms(lc.SendBusy), ktx), "ms"},
		"transport.send_errors":           {float64(lc.SendErrs), "count"},
		"contract.calls_per_tx":           {ratio(float64(lc.Calls), commits), "count"},
		"contract.useful_ratio":           {ratio(ns.committed, float64(lc.Calls)), "ratio"},
		"contract.busy_ms_per_ktx":        {ratio(ms(lc.CallBusy), ktx), "ms"},
		"contract.errors_per_ktx":         {ratio(float64(lc.CallErrs), ktx), "count"},
		"node.spec_hit_rate":              {ratio(ns.hits, ns.hits+ns.misses), "ratio"},
		"node.spec_hits":                  {ns.hits, "count"},
		"node.spec_misses":                {ns.misses, "count"},
		"node.spec_wasted_per_ktx":        {ratio(ns.wasted, ktx), "count"},
		"node.reexec_per_tx":              {ratio(ns.reexec, commits), "count"},
		"node.converted_to_cross_per_ktx": {ratio(ns.converted, ktx), "count"},
		"node.batch_size_mean":            {ratio(commits, ns.rounds), "count"},
		"node.rounds_per_s":               {ns0.rounds / secs, "1/s"},
		"node.reconfigurations":           {ns0.reconfigs, "count"},
		"node.shift_blocks":               {ns.shifts, "count"},
		"node.dropped_at_reconfig":        {ns.dropped, "count"},
		"tusk.waves_per_s":                {float64(len(t.waves)) / secs, "1/s"},
		"tusk.wave_interval_p50_ms":       {quantileMS(intervals, 0.50), "ms"},
		"tusk.wave_interval_p99_ms":       {quantileMS(intervals, 0.99), "ms"},
		"load.gen_late_p99_ms":            {quantileMS(t.late, 0.99), "ms"},
		"load.gen_late_max_ms":            {quantileMS(t.late, 1), "ms"},
		"load.failed_ratio":               {ratio(float64(t.out.failed), float64(t.attempted())), "ratio"},
		"load.latency_samples":            {float64(t.attempted()), "count"},
		"load.resubmitted_nacks":          {float64(t.rejects), "count"},
		"trace.overhead_pct":              {100 * (1 - ratio(t.tps(), plain.tps())), "%"},
		"trace.cpu_overhead_pct":          {100 * (ratio(t.cpuPerKtx(), plain.cpuPerKtx()) - 1), "%"},
		"trace.spans":                     {float64(t.spans), "count"},
		"trace.spans_dropped":             {float64(t.spansDropped), "count"},
	}
	for _, name := range metrics.StageNames {
		short := strings.TrimSuffix(strings.TrimPrefix(name, "stage_"), "_ns")
		out["stage."+short+"_p50_ms"] = metric{float64(t.stages[name].Quantile(0.5)) / 1e6, "ms"}
	}
	return resultOf(t, out), map[string]any{"latency": []percentile{p50, p99}, "warmup_s": t.warmup.Seconds()}, nil
}
