package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer. Times are offsets from the tracer's
// origin; parent indexes the enclosing span (-1 for a root).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer records spans around the benchmark's calls into the program's
// layers, plus named counters. Spans are kept in memory and folded into
// per-layer self times when the run ends. Counters are always recorded
// (the determinism guard compares them across passes); spans and
// allocation probes only when on. A tracer is used from one goroutine: the
// traced run is serial, so the runtime's allocation deltas around a call
// belong to that call.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int
	counts map[string]float64
	probe  []metrics.Sample
}

func newTracer(on bool) *tracer {
	return &tracer{
		on:     on,
		origin: time.Now(),
		counts: map[string]float64{},
		probe: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
}

// do runs fn inside a span named after the layer call.
func (t *tracer) do(name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.origin)})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.origin)
}

// doAllocs runs fn inside a span and adds the heap objects and bytes it
// allocated to the counters <name>_allocs and <name>_bytes.
func (t *tracer) doAllocs(name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	metrics.Read(t.probe)
	objs, bytes := t.probe[0].Value.Uint64(), t.probe[1].Value.Uint64()
	t.do(name, fn)
	metrics.Read(t.probe)
	t.add(name+"_allocs", float64(t.probe[0].Value.Uint64()-objs))
	t.add(name+"_bytes", float64(t.probe[1].Value.Uint64()-bytes))
}

func (t *tracer) add(name string, v float64) { t.counts[name] += v }

// selfTimes folds spans into per-name self time: each span's duration minus
// the part of its interval that its child spans cover. Children may overlap
// each other (concurrent calls under one parent), so the covered part is
// the union of the children's intervals, clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		var curLo, curHi time.Duration
		for k, v := range ivs {
			switch {
			case k == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			case v.hi > curHi:
				curHi = v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[s.name] += s.end - s.start - covered
	}
	return self
}

// gcSnapshot is the process-wide allocation and collector totals.
type gcSnapshot struct {
	allocBytes uint64
	cycles     uint32
	pauseNs    uint64
}

func readGC() gcSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSnapshot{allocBytes: m.TotalAlloc, cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}
