package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/plan"
	"repro/internal/tune"
	"repro/internal/workload"
)

// sweepPrefix is the corpus prefix one timed sweep pass covers: the corpus
// interleaves its nine kernel families, so nine scenarios take one of each.
const sweepPrefix = 9

// tracedSweepPrefix is the smaller prefix the traced slice covers.
const tracedSweepPrefix = 3

// sweepConfig is the committed and CI sweep configuration: bytecode engine,
// tiered tuning re-checked on the walk oracle, static verification, and a
// fresh private session per call.
func sweepConfig(scenarios []workload.Scenario, parallelism int) harness.Config {
	return harness.Config{
		Scenarios:       scenarios,
		Engine:          exec.EngineBytecode,
		Tune:            true,
		TuneCheckEngine: exec.EngineWalk,
		Verify:          true,
		Parallelism:     parallelism,
	}
}

// sweepFacts are the deterministic quantities of one sweep pass.
type sweepFacts struct {
	geomeans    [3]float64
	evaluations int
	compiled    int64
}

// checkSweep applies the output checks to one report: every scenario is
// oracle-identical with no error and no verify finding, and every machine
// has a tuned row with speedup >= 1.0. Failed items are counted per
// (scenario, machine).
func checkSweep(rep *harness.Report, o *outcome) sweepFacts {
	nm := len(rep.Machines)
	o.attempted += int64(len(rep.Scenarios) * nm)
	var f sweepFacts
	for _, sc := range rep.Scenarios {
		switch {
		case sc.Err != "":
			o.failItems(int64(nm), "%s: error %s", sc.Name, sc.Err)
		case !sc.Identical:
			o.failItems(int64(nm), "%s: oracle mismatch %s", sc.Name, sc.Mismatch)
		case len(sc.VerifyFailures) > 0:
			o.failItems(int64(nm), "%s: verify findings %v", sc.Name, sc.VerifyFailures)
		case len(sc.Tuned) != nm:
			o.failItems(int64(nm), "%s: %d tuned rows for %d machines", sc.Name, len(sc.Tuned), nm)
		default:
			for _, tr := range sc.Tuned {
				f.evaluations += tr.Evaluations
				if tr.TunedSpeedup < 1.0 {
					o.fail("%s on %s: tuned speedup %v < 1.0", sc.Name, tr.Profile, tr.TunedSpeedup)
				}
			}
		}
	}
	if rep.Summary.VerifyFailures != 0 {
		o.fail("sweep: %d verify findings", rep.Summary.VerifyFailures)
	}
	for _, pp := range rep.Summary.PerProfile {
		if i := machineIndex(pp.Profile); i >= 0 {
			f.geomeans[i] = pp.TunedGeomean
		}
	}
	f.compiled = rep.Summary.VariantsCompiled
	return f
}

// machineIndex places a default-sweep machine in the geomean array.
func machineIndex(name string) int {
	for i, m := range plan.DefaultSweep() {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// sweepCorpus returns the scenarios one sweep pass covers: the seed's
// corpus prefix and the prefix of a second corpus salted from the seed, so
// a pass averages over eighteen kernels, two of each family at the same
// sizes.
func sweepCorpus(seed int64) []workload.Scenario {
	out := workload.GenerateScenarios(workload.GenOptions{Seed: seed, Limit: sweepPrefix})
	return append(out, workload.GenerateScenarios(workload.GenOptions{Seed: saltedSeed(seed, 1), Limit: sweepPrefix})...)
}

// runSweep measures tuned sweep passes over the seed's scenarios, each
// through harness.Run with a fresh private session, until the run length
// is used. Every pass must reproduce the first pass's deterministic
// quantities.
func runSweep(cfg config) (*result, error) {
	var scenarios []workload.Scenario
	setups, err := timeSetup(setupReps, func() error {
		scenarios = sweepCorpus(cfg.seed)
		if len(scenarios) != 2*sweepPrefix {
			return fmt.Errorf("sweep: corpus has %d scenarios, want %d", len(scenarios), 2*sweepPrefix)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	genMs := median(setups) * 1000
	if cfg.trace {
		return runTraced(genMs, func(t *tracer, o *outcome) error {
			return tracedSweep(t, o, scenarios[:tracedSweepPrefix])
		})
	}

	o := &outcome{}
	var first *sweepFacts
	var lat samples
	var items int
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for pass := 0; time.Since(start) < budget; pass++ {
		passStart := time.Now()
		rep, err := harness.Run(sweepConfig(scenarios, cfg.workers))
		if err != nil {
			return nil, err
		}
		d := time.Since(passStart)
		lat = append(lat, d)
		items += len(rep.Scenarios) * len(rep.Machines)
		f := checkSweep(rep, o)
		if first == nil {
			first = &f
		} else if f != *first {
			o.fail("nondeterminism leak: pass %d facts %+v differ from the first pass's %+v", pass, f, *first)
		}
		fmt.Fprintf(os.Stderr, "perfbench: pass %d %.3fs, tuned geomeans %v, %d evaluations, %d variants compiled\n",
			pass, d.Seconds(), f.geomeans, f.evaluations, f.compiled)
	}
	wall := time.Since(start)
	return finish(o, endToEnd(float64(items)/wall.Seconds(), lat, selfRSSKB(), setups)), nil
}

// tracedSweep is the sweep's traced slice: one serial harness.Run over the
// prefix (the harness span and its verdict counters), then the same work
// issued as separate layer calls — analyze, apply and verify the fixed
// plan, run both variants on bytecode, search each machine, re-check the
// adopted plan on the walk engine, and verify every measured candidate.
// The separate calls must agree with the harness's tuned rows.
func tracedSweep(t *tracer, o *outcome, scenarios []workload.Scenario) error {
	var rep *harness.Report
	var err error
	t.do("harness.run", func() { rep, err = harness.Run(sweepConfig(scenarios, 1)) })
	if err != nil {
		return err
	}
	f := checkSweep(rep, o)
	for i, g := range f.geomeans {
		t.add("tune.tuned_geomean."+plan.DefaultSweep()[i].Name, g)
	}
	for _, sc := range rep.Scenarios {
		if sc.Err != "" {
			t.add("harness.errors", 1)
		} else if !sc.Identical {
			t.add("harness.oracle_mismatches", 1)
		}
	}

	l := newLayers(t, nil)
	store := exec.NewMemStore()
	for si, sc := range scenarios {
		arrays := sc.Arrays
		if len(arrays) == 0 {
			arrays = []string{"ar"}
		}
		prog, err := l.analyze(sc.Source, 0)
		if err != nil {
			o.fail("%s: analyze: %v", sc.Name, err)
			continue
		}
		fixed := core.Options{K: sc.K}.Plan()
		out, crep, err := l.apply(prog, fixed)
		if err != nil {
			o.fail("%s: apply: %v", sc.Name, err)
			continue
		}
		if d := l.verify(prog, fixed, out, crep); len(d) > 0 {
			o.fail("%s: verify: %v", sc.Name, d)
		}
		for mi, m := range plan.DefaultSweep() {
			if sc.Costs != nil {
				m.Costs = *sc.Costs
			}
			o.attempted++
			l.fingerprint(prog, m.Name)
			orig, err := l.runBytecode(sc.Source, sc.NP, m)
			if err != nil {
				o.fail("%s on %s: run original: %v", sc.Name, m.Name, err)
				continue
			}
			fixedRun, err := l.runBytecode(out, sc.NP, m)
			if err != nil {
				o.fail("%s on %s: run fixed: %v", sc.Name, m.Name, err)
				continue
			}
			if err := sameObservable(orig, fixedRun, arrays); err != nil {
				o.fail("%s on %s: fixed plan: %v", sc.Name, m.Name, err)
			}
			var choices []tune.Choice
			before := store.Stats()
			t.do("tune.search", func() {
				choices, err = tune.Tune(tune.Input{Source: sc.Source, Program: prog, NP: sc.NP,
					FixedK: sc.K, Machines: []plan.Machine{m}},
					tune.Options{Arrays: arrays, Engine: exec.EngineBytecode, Store: store})
			})
			if err != nil {
				o.fail("%s on %s: tune: %v", sc.Name, m.Name, err)
				continue
			}
			delta := store.Stats().Sub(before)
			t.add("exec.variants_compiled", float64(delta.Compiled))
			t.add("exec.cache_hits", float64(delta.Hits))
			c := choices[0]
			t.add("tune.searches", 1)
			t.add("tune.evaluations", float64(c.Evaluations))
			if row := rep.Scenarios[si].Tuned; len(row) > mi && row[mi].TunedNs != c.PrepushNs {
				o.fail("%s on %s: separate search chose %d ns, the harness %d ns",
					sc.Name, m.Name, c.PrepushNs, row[mi].TunedNs)
			}
			tieredCheck(l, o, prog, sc, m, arrays, c)
			for _, cd := range c.Candidates {
				if len(cd.Decisions) != len(c.Sites) {
					continue
				}
				cand := *c.Plan
				cand.Sites = make([]plan.SitePlan, len(c.Sites))
				for i := range c.Sites {
					cand.Sites[i] = plan.SitePlan{Site: c.Sites[i].Site, Decision: cd.Decisions[i]}
				}
				if cout, crep, err := l.apply(prog, &cand); err == nil {
					if d := l.verify(prog, &cand, cout, crep); len(d) > 0 {
						o.fail("%s on %s: candidate verify: %v", sc.Name, m.Name, d)
					}
				}
			}
		}
	}
	return nil
}

// tieredCheck re-runs the original program and the adopted plan on the
// walk engine, as tiered tuning does: the makespans must be the ones the
// search measured and the observables must agree.
func tieredCheck(l *layers, o *outcome, prog *core.Program, sc workload.Scenario, m plan.Machine, arrays []string, c tune.Choice) {
	out, crep, err := l.apply(prog, c.Plan)
	if err != nil {
		o.fail("%s on %s: apply adopted plan: %v", sc.Name, m.Name, err)
		return
	}
	if d := l.verify(prog, c.Plan, out, crep); len(d) > 0 {
		o.fail("%s on %s: adopted plan verify: %v", sc.Name, m.Name, d)
	}
	orig, err := l.runWalk(sc.Source, sc.NP, m)
	if err != nil {
		o.fail("%s on %s: walk original: %v", sc.Name, m.Name, err)
		return
	}
	l.t.add("tune.tiered_checks", 1)
	tuned := orig
	if out != sc.Source {
		if tuned, err = l.runWalk(out, sc.NP, m); err != nil {
			o.fail("%s on %s: walk adopted plan: %v", sc.Name, m.Name, err)
			return
		}
		l.t.add("tune.tiered_checks", 1)
	}
	if int64(orig.Elapsed()) != c.OriginalNs || int64(tuned.Elapsed()) != c.PrepushNs {
		o.fail("%s on %s: walk makespans %d/%d ns, search measured %d/%d ns", sc.Name, m.Name,
			orig.Elapsed(), tuned.Elapsed(), c.OriginalNs, c.PrepushNs)
	}
	if err := sameObservable(orig, tuned, arrays); err != nil {
		o.fail("%s on %s: adopted plan: %v", sc.Name, m.Name, err)
	}
	if c.Speedup < 1.0 || math.IsNaN(c.Speedup) {
		o.fail("%s on %s: tuned speedup %v < 1.0", sc.Name, m.Name, c.Speedup)
	}
}
