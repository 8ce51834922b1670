package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/verify"
)

// layers issues single calls into the program's public entry points, each
// inside a span named after its layer, and keeps that layer's counters. The
// traced runs drive every workload through it. With caching on, compiled
// variants are kept per source (the exec store's job, done here so compile
// and lower get spans of their own) and each verified variant is proven
// once, remembered locally and in ledger when one is set; without it every
// call does its work.
type layers struct {
	t        *tracer
	compiled map[string]*exec.Program // nil: no caching
	ledger   exec.VerifyLedger
	local    map[exec.Key]bool
}

func newLayers(t *tracer, ledger exec.VerifyLedger) *layers {
	return &layers{t: t, compiled: map[string]*exec.Program{}, ledger: ledger, local: map[exec.Key]bool{}}
}

// newUncachedLayers returns layers that compile and verify on every call.
func newUncachedLayers(t *tracer) *layers { return &layers{t: t} }

func (l *layers) analyze(src string, np int64) (p *core.Program, err error) {
	l.t.do("core.analyze", func() { p, err = core.Analyze(src, core.AnalyzeOptions{NP: np}) })
	l.t.add("core.analyze_calls", 1)
	return p, err
}

func (l *layers) fingerprint(p *core.Program, machine string) (fp string) {
	l.t.do("core.fingerprint", func() { fp = core.Fingerprint(p, machine) })
	return fp
}

func (l *layers) apply(p *core.Program, pl *plan.Plan) (out string, rep *core.Report, err error) {
	l.t.do("core.apply", func() { out, rep, err = core.Apply(p, pl) })
	l.t.add("core.apply_calls", 1)
	return out, rep, err
}

// verify statically proves one variant, at most once per (original,
// variant) content pair, and returns its findings.
func (l *layers) verify(p *core.Program, pl *plan.Plan, out string, rep *core.Report) []verify.Diagnostic {
	key := exec.KeyOf(p.Source() + "\x00" + out)
	if l.local != nil && (l.local[key] || (l.ledger != nil && l.ledger.Verified(key))) {
		l.t.add("verify.ledger_skips", 1)
		return nil
	}
	var diags []verify.Diagnostic
	l.t.do("verify.variant", func() { diags = verify.Variant(p, pl, out, rep) })
	l.t.add("verify.variants", 1)
	l.t.add("verify.findings", float64(len(diags)))
	if l.local != nil {
		l.local[key] = true
	}
	if len(diags) == 0 && l.ledger != nil {
		l.ledger.MarkVerified(key)
	}
	return diags
}

// compile returns the variant's compiled and lowered program.
func (l *layers) compile(src string) (*exec.Program, error) {
	if p, ok := l.compiled[src]; ok {
		l.t.add("exec.cache_hits", 1)
		return p, nil
	}
	var p *exec.Program
	var err error
	l.t.do("exec.compile", func() { p, err = exec.CompileSource(src) })
	if err != nil {
		return nil, err
	}
	l.t.do("exec.lower", func() { _ = p.Bytecode() })
	l.t.add("exec.variants_compiled", 1)
	if l.compiled != nil {
		l.compiled[src] = p
	}
	return p, nil
}

func (l *layers) runBytecode(src string, np int, m plan.Machine) (*interp.Result, error) {
	p, err := l.compile(src)
	if err != nil {
		return nil, err
	}
	var res *interp.Result
	l.t.doAllocs("exec.run_bytecode", func() { res, err = p.RunBytecode(np, m.Profile, m.Costs) })
	l.t.add("exec.runs_bytecode", 1)
	l.simulated(res)
	return res, err
}

func (l *layers) runWalk(src string, np int, m plan.Machine) (*interp.Result, error) {
	var res *interp.Result
	var err error
	walk := exec.Runner{Engine: exec.EngineWalk}
	l.t.doAllocs("exec.run_walk", func() { res, err = walk.Run(src, np, m.Costs, m.Profile) })
	l.t.add("exec.runs_walk", 1)
	l.simulated(res)
	return res, err
}

func (l *layers) simulated(res *interp.Result) {
	if res != nil {
		l.t.add("netsim.messages", float64(res.Stats.Messages))
		l.t.add("netsim.sim_ms", float64(res.Elapsed())/1e6)
	}
}

// sameObservable checks that two runs agree on every observable (printed
// output and the named arrays), both ways.
func sameObservable(a, b *interp.Result, arrays []string) error {
	if same, why := interp.SameObservable(a, b, arrays...); !same {
		return fmt.Errorf("observables differ: %s", why)
	}
	if same, why := interp.SameObservable(b, a, arrays...); !same {
		return fmt.Errorf("observables differ: %s", why)
	}
	return nil
}
