package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/plan"
	"repro/internal/verify"
	"repro/internal/workload"
)

// tracedCodegenPrograms is how many programs the traced slice covers.
const tracedCodegenPrograms = 16

// codegenOp is one (program, plan) pair.
type codegenOp struct {
	name     string
	src      string
	pl       *plan.Plan
	identity bool
}

// codegenPlans is the plan set of one program: the identity plan, every
// builtin machine's default plan, and single knob flips at the scenario's
// tile size.
func codegenPlans(sc workload.Scenario) []codegenOp {
	ops := []codegenOp{{name: sc.Name + " identity", src: sc.Source, pl: plan.Uniform(plan.Identity()), identity: true}}
	for _, m := range plan.Builtin() {
		ops = append(ops, codegenOp{name: sc.Name + " default " + m.Name, src: sc.Source, pl: plan.Default(m)})
	}
	for _, d := range []plan.Decision{
		{K: sc.K, Wait: plan.WaitPerTile},
		{K: sc.K, SendOrder: plan.SendSequential},
		{K: sc.K, Interchange: plan.InterchangeOn},
		{K: sc.K, Interchange: plan.InterchangeOff},
	} {
		ops = append(ops, codegenOp{name: fmt.Sprintf("%s %+v", sc.Name, d), src: sc.Source, pl: plan.Uniform(d)})
	}
	return ops
}

// codegenCorpus returns corpus j of the seed's sequence of salted corpora.
func codegenCorpus(seed int64, j int64) []workload.Scenario {
	return workload.GenerateScenarios(workload.GenOptions{Seed: saltedSeed(seed, j)})
}

// runCodegenOp takes one (program, plan) pair through analyze, apply,
// verify, compile and lower, with no execution, and checks it: no verify
// finding, no compile error, and the input bytes back from the identity
// plan. Apply's per-site rejections are completed operations.
func runCodegenOp(l *layers, op codegenOp) error {
	prog, err := l.analyze(op.src, 0)
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	out, rep, err := l.apply(prog, op.pl)
	if err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	if op.identity && out != op.src {
		return fmt.Errorf("identity plan changed the program")
	}
	if d := l.verify(prog, op.pl, out, rep); len(d) > 0 {
		return fmt.Errorf("verify: %s", verify.Summarize(d))
	}
	if _, err := l.compile(out); err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	return nil
}

// runCodegen runs (program, plan) pairs on nproc workers, drawing programs
// from successive salted corpora until the run length is used.
func runCodegen(cfg config) (*result, error) {
	var first []workload.Scenario
	setups, err := timeSetup(setupReps, func() error {
		first = codegenCorpus(cfg.seed, 1)
		if len(first) == 0 {
			return fmt.Errorf("codegen: empty corpus")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	genMs := median(setups) * 1000
	if cfg.trace {
		return runTraced(genMs, func(t *tracer, o *outcome) error {
			l := newUncachedLayers(t)
			for _, sc := range first[:tracedCodegenPrograms] {
				for _, op := range codegenPlans(sc) {
					o.attempted++
					if err := runCodegenOp(l, op); err != nil {
						o.fail("%s: %v", op.name, err)
					}
				}
			}
			return nil
		})
	}

	ops := make(chan codegenOp)
	stop := make(chan struct{})
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		defer close(ops)
		corpus := first
		for j := int64(1); ; j++ {
			if j > 1 {
				corpus = codegenCorpus(cfg.seed, j)
			}
			for _, sc := range corpus {
				for _, op := range codegenPlans(sc) {
					select {
					case ops <- op:
					case <-stop:
						return
					}
				}
			}
		}
	}()

	o := &outcome{}
	var mu sync.Mutex
	var lat, done samples
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := newUncachedLayers(newTracer(false))
			for time.Since(start) < budget {
				op := <-ops
				opStart := time.Now()
				err := runCodegenOp(l, op)
				d := time.Since(opStart)
				mu.Lock()
				o.attempted++
				if err != nil {
					o.fail("%s: %v", op.name, err)
				} else {
					lat = append(lat, d)
					done = append(done, time.Since(start))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	feeder.Wait()
	fmt.Fprintf(os.Stderr, "perfbench: %d (program, plan) pairs in %.3fs\n", o.attempted, wall.Seconds())
	return finish(o, endToEnd(windowedThroughput(done, wall), lat, selfRSSKB(), setups)), nil
}
