// Package exec is the compiled execution engine. It lowers every program
// unit of a parsed ftn program once into a flat register-machine
// instruction stream (bytecode): frame setup (named constants,
// declarations, dummy-argument views) as a prologue, then the body. Names
// resolve to slot indices at compile time, and PRINT, user CALL and the
// MPI bindings each get dedicated opcodes over the same mpi runtime and
// interp semantics tables the tree-walking interpreter in internal/interp
// uses. Executing a lowered program is bit-identical to tree-walking the
// AST: the same output lines, final arrays, message counts, and virtual
// times, including every cost-model charge.
//
// The point of compiling is the measurement loop: the tuner and the
// harness run the same (program, plan) variant many times — per machine
// model, per tuning candidate, per sweep — and the tree-walker re-parses
// and re-walks the AST for each run. A Program is built once per variant
// (see the VariantStore implementations in store.go), shared safely across
// concurrent simulations (all mutable state lives in per-run frames and
// registers; a Program is immutable once lowered), and replayed through
// one flat dispatch switch.
//
// The tree-walker is retained as the differential oracle: Engine "walk"
// runs internal/interp, Engine "bytecode" runs this package, and the
// differential tests assert the two agree on every golden fixture and
// corpus scenario.
package exec

import (
	"fmt"
	"sync"

	"repro/internal/ftn"
	"repro/internal/interp"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// Program is a compiled, immutable program. It holds no run state and no
// cost model, so one compiled artifact is shared across machines and
// concurrent simulations.
type Program struct {
	main  *unit
	units []*unit // every lowered unit: main first, then subroutines

	// bcOnce guards the one lowering per Program; vecs are the charge
	// vectors every lowered unit's bCharge instructions index.
	bcOnce sync.Once
	vecs   [][5]int64
}

// unit is one compiled program unit.
type unit struct {
	name   string
	params []string
	// paramScal/paramArr map the i-th dummy onto its scalar and array
	// slots; the call-site binder fills whichever side the actual argument
	// provides (both exist — Fortran's loose argument association means a
	// dummy's classification is decided by the caller).
	paramScal []int
	paramArr  []int

	nscal, narr, nconst int
	arrNames            []string // array slot -> name (main-frame snapshots)

	cm *comp  // compile-time symbol state the lowering resolves against
	bc *bprog // the lowered form
}

// constCell is one named-constant slot. set marks a constant whose
// initializer has run: a named constant is only visible once setup reaches
// it (the tree-walker's consts-map membership), so a forward reference
// during frame setup falls through to implicit typing instead of reading a
// zero slot.
type constCell struct {
	v   interp.Value
	set bool
}

// frame is one procedure activation: slot-indexed storage plus the
// activation's register file. Scalar slot i's own cell is register i:
// creating a cell points scal[i] at regs[i], so the body reads a local
// through its register with no load instruction. A dummy's slot may
// instead hold the caller's pointer (by-reference binding, exactly like
// the tree-walker's map of *Value); nil means "not yet created" (the
// tree-walker's missing map entry).
type frame struct {
	scal   []*interp.Value
	regs   []interp.Value
	arr    []*interp.Array
	consts []constCell
	// bind holds the caller's array bindings by array slot (subroutine
	// frames only). Like the tree-walker's binding map they are not names
	// in the frame until a declaration views them or setup ends.
	bind []*interp.Array
}

// newFrame opens an activation of a lowered unit: empty slots and a
// register file holding the folded constants.
func (u *unit) newFrame() *frame {
	fr := &frame{
		scal:   make([]*interp.Value, u.nscal),
		regs:   make([]interp.Value, len(u.bc.regInit)),
		consts: make([]constCell, u.nconst),
	}
	copy(fr.regs, u.bc.regInit)
	if len(u.params) == 0 {
		fr.arr = make([]*interp.Array, u.narr)
		return fr
	}
	arrs := make([]*interp.Array, 2*u.narr)
	fr.arr, fr.bind = arrs[:u.narr], arrs[u.narr:]
	return fr
}

// newCell creates scalar slot s's cell in its register, holding v.
func (fr *frame) newCell(s int32, v interp.Value) *interp.Value {
	p := &fr.regs[s]
	*p = v
	fr.scal[s] = p
	return p
}

// rctx is the per-rank execution context: everything mutable during a run.
type rctx struct {
	rank  *mpi.Rank
	costs interp.CostModel
	tab   []netsim.Time // charge-vector totals under costs
	out   []string
	reqs  []*mpi.Request
	main  *frame
	// pend is the callee frame whose arguments are being bound. Actual
	// arguments cannot contain calls, so at most one is pending per rank.
	pend *frame
}

func (x *rctx) charge(t netsim.Time) { x.rank.Compute(t) }

// Control-flow sentinels (same contract as the tree-walker's).
var (
	errReturn = fmt.Errorf("return")
	errStop   = fmt.Errorf("stop")
	errExit   = fmt.Errorf("exit")
	errCycle  = fmt.Errorf("cycle")
)

// rte formats a positioned runtime error exactly like the tree-walker.
func rte(pos ftn.Pos, format string, args ...interface{}) error {
	return fmt.Errorf("%s: %v", pos, fmt.Errorf(format, args...))
}

// Compile builds a program's units and their slot tables. Lowering to
// bytecode happens once, on the first Bytecode or RunBytecode call.
func Compile(file *ftn.File) (*Program, error) {
	if file.Program() == nil {
		return nil, fmt.Errorf("exec: no program unit")
	}
	prog := &Program{}
	var subs []*unit
	seen := map[string]bool{}
	for _, un := range file.Units {
		switch un.Kind {
		case ftn.ProgramUnit:
			if prog.main == nil {
				prog.main = compileUnit(un)
			}
		case ftn.SubroutineUnit:
			if !seen[un.Name] { // first definition wins
				seen[un.Name] = true
				subs = append(subs, compileUnit(un))
			}
		}
	}
	prog.units = append([]*unit{prog.main}, subs...)
	return prog, nil
}

// CompileSource parses and compiles src (uncached; a VariantStore is the
// caching layer above this).
func CompileSource(src string) (*Program, error) {
	f, err := ftn.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}

// RunBytecode executes the program on np simulated ranks over the profile,
// charging computation against costs. The result is bit-identical to
// interp's tree-walk of the same source under the same machine.
func (p *Program) RunBytecode(np int, prof netsim.Profile, costs interp.CostModel) (*interp.Result, error) {
	bp := p.Bytecode()
	tab := chargeTab(p.vecs, costs)
	res := &interp.Result{
		Output: make([][]string, np),
		Arrays: make([]map[string]interface{}, np),
		Errors: make([]error, np),
	}
	var mu sync.Mutex
	stats, err := mpi.Run(np, prof, func(r *mpi.Rank) {
		x := &rctx{rank: r, costs: costs, tab: tab}
		runErr := x.runRank(bp)
		mu.Lock()
		res.Output[r.Me()] = x.out
		res.Errors[r.Me()] = runErr
		if x.main != nil {
			snap := map[string]interface{}{}
			inFlight := mpi.RecvInFlight(x.reqs)
			for i, a := range x.main.arr {
				if a != nil {
					snap[p.main.arrNames[i]] = a.Snapshot(inFlight)
				}
			}
			res.Arrays[r.Me()] = snap
		}
		mu.Unlock()
	})
	if err != nil {
		// A rank error that ended a rank early usually surfaces as a
		// deadlock; attach the per-rank errors for diagnosis.
		for i, re := range res.Errors {
			if re != nil {
				return res, fmt.Errorf("%v (rank %d: %v)", err, i, re)
			}
		}
		return res, err
	}
	res.Stats = stats
	for i, re := range res.Errors {
		if re != nil {
			return res, fmt.Errorf("rank %d: %v", i, re)
		}
	}
	return res, nil
}

// runRank executes the lowered main unit on this context's rank.
func (x *rctx) runRank(bp *bprog) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// The wording matches the tree-walker's: per-rank error strings
			// are part of the engines' differential contract (harness-level
			// comparisons include Outcome.Err).
			err = fmt.Errorf("interp panic: %v", r)
		}
	}()
	err = bp.bexec(x, bp.u.newFrame())
	if err == errStop || err == errReturn {
		err = nil
	}
	return err
}
