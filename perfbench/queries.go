package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/session"
	"repro/internal/workload"
)

// Query classes of the plan_service mix.
const (
	classCold   = "cold"   // a (program shape, machine) pair not asked before
	classRepeat = "repeat" // the exact bytes of an earlier cold query
	classAlias  = "alias"  // an earlier cold query with comments or whitespace added
)

// coldEvery makes every tenth query cold: about one cold query to nine
// warm ones. Two warm queries in three are exact repeats and one is an
// alias, so the median answer lies inside the tight repeat latencies rather
// than on the edge between repeats and the slower aliases (which pay a
// fresh analysis, apply and verify).
const coldEvery = 10

// coldMaxMeasured is the measured-candidate budget each query asks for.
// The default budget grows by ten per extra exchange site, so a few
// multi-site searches would take most of a run and decide its throughput;
// one fixed budget keeps the cost of cold answers even.
const coldMaxMeasured = 8

// coldPrefix is how much of each salted corpus cold queries take: one
// kernel of each family, at the corpus's smaller sizes, so cold answers
// cost about the same and a run holds many of them.
const coldPrefix = 9

// planQuery is one query of the plan_service sequence. A warm query (repeat
// or alias) copies the cold query at sequence index ref; a cold query's ref
// is its own index.
type planQuery struct {
	class string
	ref   int
	q     session.Query
}

// queryGen produces the plan_service query sequence from a seed. Cold
// queries walk salted corpora (corpus j of seed s is generated with a seed
// derived from both), one query per (scenario, machine) pair with np, the
// fixed K and the observable arrays taken from the scenario; a pair whose
// analysis fingerprint an earlier cold query already had is skipped, so
// every cold query really is a memo miss. Warm queries pick an earlier cold
// query. The sequence is a pure function of the seed.
type queryGen struct {
	seed    int64
	rng     uint64
	corpus  int64
	pending []session.Query
	seenFP  map[string]bool
	colds   []int
	seq     []planQuery
}

func newQueryGen(seed int64) (*queryGen, error) {
	g := &queryGen{seed: seed, rng: uint64(seed), seenFP: map[string]bool{}}
	if err := g.refill(); err != nil {
		return nil, err
	}
	return g, nil
}

// refill queues the cold pairs of the next salted corpus.
func (g *queryGen) refill() error {
	for len(g.pending) == 0 {
		g.corpus++
		corpus := workload.GenerateScenarios(workload.GenOptions{Seed: saltedSeed(g.seed, g.corpus), Limit: coldPrefix})
		progs := make([]*core.Program, len(corpus))
		for i, sc := range corpus {
			p, err := core.Analyze(sc.Source, core.AnalyzeOptions{NP: int64(sc.NP)})
			if err != nil {
				return fmt.Errorf("plan queries: analyze %s: %w", sc.Name, err)
			}
			progs[i] = p
		}
		// Pair k takes scenario k mod n on machine (k mod n + k div n) mod
		// 3: every (scenario, machine) pair once, in an order where any run
		// of consecutive pairs is balanced across kernel families (the
		// corpus interleaves them) and machines, so where a run stops does
		// not decide its mix of cheap and expensive searches.
		machines := plan.DefaultSweep()
		n := len(corpus)
		for k := 0; k < n*len(machines); k++ {
			sc, m := corpus[k%n], machines[(k%n+k/n)%len(machines)]
			fp := core.Fingerprint(progs[k%n], m.Name)
			if g.seenFP[fp] {
				continue
			}
			g.seenFP[fp] = true
			g.pending = append(g.pending, session.Query{Source: sc.Source, Machine: m.Name,
				NP: sc.NP, FixedK: sc.K, Arrays: sc.Arrays, MaxMeasured: coldMaxMeasured})
		}
	}
	return nil
}

// rand is a splitmix64 step over the generator's state.
func (g *queryGen) rand() uint64 {
	g.rng += 0x9e3779b97f4a7c15
	x := g.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next appends the next query to the sequence and returns it.
func (g *queryGen) next() (planQuery, error) {
	i := len(g.seq)
	var pq planQuery
	if i%coldEvery == 0 {
		if err := g.refill(); err != nil {
			return planQuery{}, err
		}
		pq = planQuery{class: classCold, ref: i, q: g.pending[0]}
		g.pending = g.pending[1:]
		g.colds = append(g.colds, i)
	} else {
		ref := g.colds[g.rand()%uint64(len(g.colds))]
		pq = planQuery{class: classRepeat, ref: ref, q: g.seq[ref].q}
		if g.rand()%3 == 0 {
			pq.class = classAlias
			pq.q.Source = aliasSource(pq.q.Source, i, g.rand()%2 == 1)
		}
	}
	g.seq = append(g.seq, pq)
	return pq, nil
}

// aliasSource rewrites src without changing what it means or where any
// statement sits: a comment line naming the query after the last line, or
// trailing blanks on the lines picked by the bits of the query index plus
// one trailing blank line. Either keeps every site's line:col key, so the
// alias shares the original's analysis fingerprint while its bytes (and so
// its session analysis key) are new.
func aliasSource(src string, index int, comment bool) string {
	if comment {
		return src + fmt.Sprintf("! alias, query %d\n", index)
	}
	lines := strings.Split(strings.TrimSuffix(src, "\n"), "\n")
	for j := range lines {
		if j < 62 && index>>j&1 == 1 {
			lines[j] += " "
		}
	}
	return strings.Join(lines, "\n") + "\n\n"
}
