package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/workload"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "outer", parent: -1, start: 0, end: 10 * ms},
		// Two overlapping children cover [1,6]; a third sticks out past
		// the parent's end and counts only up to it.
		{name: "a", parent: 0, start: 1 * ms, end: 4 * ms},
		{name: "b", parent: 0, start: 3 * ms, end: 6 * ms},
		{name: "a", parent: 0, start: 8 * ms, end: 12 * ms},
		// A grandchild is charged to its own parent, not to outer.
		{name: "c", parent: 2, start: 4 * ms, end: 5 * ms},
		{name: "other", parent: -1, start: 20 * ms, end: 21 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"outer": 3 * ms,      // 10 - |[1,6] ∪ [8,10]|
		"a":     3*ms + 4*ms, // no children
		"b":     3*ms - 1*ms, // minus c
		"c":     1 * ms,      //
		"other": 1 * ms,      //
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesNestedChildrenInsideEachOther(t *testing.T) {
	// A child contained in an earlier sibling adds no coverage.
	spans := []span{
		{name: "p", parent: -1, start: 0, end: 100},
		{name: "x", parent: 0, start: 10, end: 60},
		{name: "y", parent: 0, start: 20, end: 30},
		{name: "z", parent: 0, start: 60, end: 70},
	}
	if got := selfTimes(spans)["p"]; got != 40 {
		t.Fatalf("self time of p = %v, want 40ns", got)
	}
}

func TestTracerOffRecordsCountsOnly(t *testing.T) {
	tr := newTracer(false)
	ran := false
	tr.do("layer.call", func() { ran = true })
	tr.add("layer.calls", 2)
	if !ran || len(tr.spans) != 0 || tr.counts["layer.calls"] != 2 {
		t.Fatalf("tracer off: ran %v, spans %d, counts %v", ran, len(tr.spans), tr.counts)
	}
	on := newTracer(true)
	on.do("outer", func() { on.do("inner", func() {}) })
	if len(on.spans) != 2 || on.spans[1].parent != 0 || on.spans[0].parent != -1 {
		t.Fatalf("tracer on: spans %+v", on.spans)
	}
}

func TestPercentile(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i))
	}
	s = s.sorted()
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {2, 50}, {199, 50}, {200, 95}, {511, 95}, {5000, 95}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestWindowedThroughputIsTheMedianWindow(t *testing.T) {
	// Ten 1s windows: nine complete 5 ops each, one (a stall) completes 1;
	// the last op lands exactly on the end and counts in the last window.
	var done samples
	for w := 0; w < 10; w++ {
		n := 5
		if w == 3 {
			n = 1
		}
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(w)*time.Second+time.Duration(i+1)*100*time.Millisecond)
		}
	}
	done = append(done, 10*time.Second)
	if got := windowedThroughput(done, 10*time.Second); got != 5 {
		t.Fatalf("windowed throughput %v, want 5", got)
	}
	if got := windowedThroughput(nil, 0); got != 0 {
		t.Fatalf("empty run throughput %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// planSequence generates the first n queries of a seed's sequence.
func planSequence(t *testing.T, seed int64, n int) []planQuery {
	t.Helper()
	g, err := newQueryGen(seed)
	if err != nil {
		t.Fatal(err)
	}
	for len(g.seq) < n {
		if _, err := g.next(); err != nil {
			t.Fatal(err)
		}
	}
	return g.seq
}

func TestPlanSequenceIsAFunctionOfTheSeed(t *testing.T) {
	a, b := planSequence(t, 7, 300), planSequence(t, 7, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generators with seed 7 produced different sequences")
	}
	if c := planSequence(t, 8, 300); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 produced the same sequence")
	}
	classes := map[string]int{}
	for _, pq := range a {
		classes[pq.class]++
	}
	if classes[classCold] != 30 || classes[classRepeat] == 0 || classes[classAlias] == 0 {
		t.Fatalf("class mix %v, want 30 cold of 300 and both warm kinds", classes)
	}
}

func fingerprintOf(t *testing.T, pq planQuery) string {
	t.Helper()
	p, err := core.Analyze(pq.q.Source, core.AnalyzeOptions{NP: int64(pq.q.NP)})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return core.Fingerprint(p, pq.q.Machine)
}

func TestWarmQueriesShareTheirColdFingerprint(t *testing.T) {
	seq := planSequence(t, 3, 400)
	fps := make([]string, len(seq))
	seen := map[string]int{}
	for i, pq := range seq {
		fps[i] = fingerprintOf(t, pq)
		switch pq.class {
		case classCold:
			if j, ok := seen[fps[i]]; ok {
				t.Fatalf("cold query %d shares its fingerprint with earlier query %d", i, j)
			}
			seen[fps[i]] = i
		default:
			ref := seq[pq.ref]
			if pq.ref >= i || ref.class != classCold {
				t.Fatalf("query %d copies query %d (%s), want an earlier cold query", i, pq.ref, ref.class)
			}
			if fps[i] != fps[pq.ref] {
				t.Fatalf("%s query %d has a fingerprint other than its cold query %d's", pq.class, i, pq.ref)
			}
			sameBytes := pq.q.Source == ref.q.Source
			if sameBytes != (pq.class == classRepeat) {
				t.Fatalf("%s query %d: source equal to its cold query's is %v", pq.class, i, sameBytes)
			}
			if pq.q.Machine != ref.q.Machine || pq.q.NP != ref.q.NP || pq.q.FixedK != ref.q.FixedK {
				t.Fatalf("query %d changes the query parameters of %d", i, pq.ref)
			}
		}
	}
}

// querySource is a plan query for src on one machine.
func querySource(src string, np int) session.Query {
	return session.Query{Source: src, NP: np, Machine: "mpich-gm-2005"}
}

func TestAliasesKeepEveryKernelsFingerprint(t *testing.T) {
	// Every family, both alias kinds, with many trailing-blank lines.
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{Seed: 5}) {
		orig := planQuery{q: querySource(sc.Source, sc.NP)}
		want := fingerprintOf(t, orig)
		for _, src := range []string{aliasSource(sc.Source, 12345, true), aliasSource(sc.Source, 1<<40-1, false)} {
			if src == sc.Source {
				t.Fatalf("%s: alias did not change the bytes", sc.Name)
			}
			if got := fingerprintOf(t, planQuery{q: querySource(src, sc.NP)}); got != want {
				t.Fatalf("%s: alias fingerprint differs\n%s", sc.Name, src)
			}
		}
	}
}

func TestWithoutMemoHitDropsOnlyMemoHit(t *testing.T) {
	cold := []byte(`{"fingerprint": "fp", "memo_hit": false, "choice": {"speedup": 1.25, "evaluations": 7}, "verify": {"clean": true}}`)
	warm := []byte(`{"fingerprint": "fp", "memo_hit": true, "choice": {"speedup": 1.25, "evaluations": 7, "memo_hit": true}, "verify": {"clean": true}}`)
	a, err := withoutMemoHit(cold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := withoutMemoHit(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("cold %s != warm %s", a, b)
	}
	other, _ := withoutMemoHit([]byte(`{"fingerprint": "fp", "memo_hit": true, "choice": {"speedup": 1.250, "evaluations": 7}, "verify": {"clean": true}}`))
	if string(other) == string(a) {
		t.Fatal("a changed number spelling compared equal")
	}
}

func TestCodegenPlanSet(t *testing.T) {
	sc := workload.GenerateScenarios(workload.GenOptions{Seed: 1, Limit: 1})[0]
	ops := codegenPlans(sc)
	if len(ops) != 8 || !ops[0].identity {
		t.Fatalf("plan set has %d plans (first identity %v), want identity + 3 machine defaults + 4 flips", len(ops), ops[0].identity)
	}
	l := newUncachedLayers(newTracer(false))
	for _, op := range ops {
		if err := runCodegenOp(l, op); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	if n := l.t.counts["exec.variants_compiled"]; n != 8 {
		t.Fatalf("compiled %v variants, want one per pair", n)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(1, samples{time.Millisecond}, 1024, []float64{1})
	if len(e2e) != len(spec.EndToEnd) {
		t.Fatalf("driver reports %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): driver reports %+v", m.Name, m.Unit, got)
		}
	}
	layers := layerMetrics()
	if len(layers) != len(spec.PerLayer) {
		t.Fatalf("driver reports %d per-layer metrics, BENCHMARK.json lists %d", len(layers), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if layers[i] != [2]string{m.Name, m.Unit} {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), driver %v", i, m.Name, m.Unit, layers[i])
		}
	}
}
