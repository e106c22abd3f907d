package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// pct is one latency percentile with the sample count it was taken from.
type pct struct {
	ms float64
	n  int
}

// percentile returns the p-th percentile (0 < p <= 100) of samples by
// nearest rank, and the sample count. An empty input gives {0, 0}. The
// input is not modified.
func percentile(samples []time.Duration, p float64) pct {
	n := len(samples)
	if n == 0 {
		return pct{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return pct{ms: float64(s[rank-1]) / float64(time.Millisecond), n: n}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides num by den, or returns 0 when den is 0 so that a layer the
// workload never touches reads as zero work rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// inWindow reports whether x completed inside the timed window.
func (r *run) inWindow(x result) bool {
	return !x.done.Before(r.winStart) && x.done.Before(r.winEnd)
}

// counts returns the ops completed in the window and how many of them
// failed, were refused, or answered wrongly.
func (r *run) counts() (attempted, failed int) {
	for _, x := range r.results {
		if r.inWindow(x) {
			attempted++
			if x.err != nil || x.wrong != nil {
				failed++
			}
		}
	}
	return attempted, failed
}

// window summarizes the client's side of the timed window for perLayer.
func (r *run) window(dead, live int64) window {
	w := window{deadLive: ratio(float64(dead), float64(live))}
	for _, x := range r.results {
		if r.inWindow(x) {
			w.ops++
			w.rows += int64(x.rows)
			w.service += x.done.Sub(x.sent)
		}
	}
	meanUS := func(ds []time.Duration) float64 {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return ratio(float64(sum)/1e3, float64(len(ds)))
	}
	w.parseUS, w.planUS = meanUS(r.parse), meanUS(r.plan)
	return w
}

// endToEnd derives the end-to-end metrics from the ops that completed in
// the window. Latency percentiles and ops_per_s count successful ops only;
// error_frac counts the rest against everything attempted.
func (w *workload) endToEnd(r *run) []metric {
	secs := r.winEnd.Sub(r.winStart).Seconds()
	var all, reads, first, late, svc []time.Duration
	byClass := map[string][]time.Duration{}
	readsDone := 0
	attempted, bad := r.counts()
	for _, x := range r.results {
		if !r.inWindow(x) || x.err != nil || x.wrong != nil {
			continue
		}
		lat := x.latency()
		all = append(all, lat)
		byClass[x.class] = append(byClass[x.class], lat)
		if w.streams[x.stream].reads {
			readsDone++
		}
		if slices.Contains(w.readClasses, x.class) {
			reads = append(reads, lat)
		}
		if w.streams[x.stream].rate > 0 {
			late = append(late, x.sent.Sub(x.due))
			svc = append(svc, x.done.Sub(x.sent))
		}
		if x.class == w.firstRowClass {
			first = append(first, x.first.Sub(x.due))
		}
	}
	pm := func(name string, ds []time.Duration, p float64) metric {
		v := percentile(ds, p)
		return metric{name: name, unit: "ms", value: v.ms, n: v.n}
	}
	ms := []metric{
		{name: "ops_per_s", unit: "1/s", value: float64(readsDone) / secs, n: readsDone},
		pm("p95_ms", all, 95),
	}
	if w.p99 {
		ms = append(ms, pm("p99_ms", all, 99))
	}
	ms = append(ms,
		metric{name: "error_frac", unit: "ratio", value: ratio(float64(bad), float64(attempted)), n: attempted},
		pm("read_p50_ms", reads, 50),
		pm("first_row_p50_ms", first, 50))
	for _, c := range w.classes {
		ms = append(ms, pm(c+"_p50_ms", byClass[c], 50))
	}
	if len(late) > 0 {
		ms = append(ms, pm("late_p95_ms", late, 95), pm("open_service_p50_ms", svc, 50))
	}
	return ms
}
