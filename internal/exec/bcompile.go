// Lowering from each compiled unit's AST + symbol table to bytecode. The
// lowering never fails: anything that can only fault at run time lowers to
// an instruction raising the walk oracle's error at the same point, so
// every program lowers and the result is bit-identical to the walk oracle
// on every path.
//
// Compile-time work:
//   - frame setup: named constants, declarations and dummy-argument views
//     lower into the unit's prologue, charged exactly like the walker's
//     frame setup;
//   - constant folding: parameter constants, MPI named constants, and any
//     arithmetic over them fold into deduplicated initialized registers
//     (folded constants are materialized once per activation — the
//     loop-invariant form of every constant subexpression);
//   - charge batching: walker cost charges accumulate into per-basic-block
//     charge vectors, flushed as one Compute call (bCharge);
//   - bounds-check elimination: subscripts affine in statically-ranged DO
//     variables (internal/dep's algebra) against statically-folded array
//     geometry compile to unchecked offset arithmetic (bLoadU/bStoreU)
//     with the address geometry (lower bounds, strides) hoisted to the
//     descriptor at compile time;
//   - static kind analysis: scalars and arrays with stable runtime kinds
//     get integer fast-path opcodes (bAddI, bLtI, ...), with DO-variable
//     writes and call-site aliasing poisoning unstable kinds;
//   - cell analysis: names whose scalar cell provably exists once setup
//     ends use direct slot access; the rest use checked name opcodes.
package exec

import (
	"fmt"

	"repro/internal/dep"
	"repro/internal/ftn"
	"repro/internal/interp"
)

// kUnknown marks a statically-unknown runtime kind.
const kUnknown interp.Kind = -1

// Bytecode returns the lowered form of the program's main unit, lowering
// every unit on first use. Lowering never fails and runs at most once per
// Program.
func (p *Program) Bytecode() *bprog {
	p.bcOnce.Do(func() {
		l := &lowering{subs: map[string]*unit{}, vecMap: map[[5]int64]int32{}}
		for _, u := range p.units {
			u.bc = &bprog{u: u, implicitNone: u.cm.implicitNone}
			if u != p.main {
				l.subs[u.name] = u
			}
		}
		for _, u := range p.units {
			l.lower(u, u == p.main)
		}
		p.vecs = l.vecs
	})
	return p.main.bc
}

// lowering is the program-wide lowering state: callee resolution and the
// charge vectors all units share.
type lowering struct {
	subs   map[string]*unit
	vecMap map[[5]int64]int32
	vecs   [][5]int64
}

// arrGeo is the static shape knowledge for one array slot.
type arrGeo struct {
	aslot int32
	// static geometry; nil slices when only non-nilness is proven
	lo, hi, stride []int64
	kind           interp.Kind
}

// factRange is a DO variable's statically-proven value range inside its
// loop body.
type factRange struct{ lo, hi int64 }

// rv is a lowered expression: its result register and statically-known kind.
type rv struct {
	reg int32
	k   interp.Kind
}

// loopFrame tracks patch targets while lowering one DO body.
type loopFrame struct {
	exitPatches []int32 // bJmp pcs needing endPC
	contPatches []int32 // bJmp pcs needing contPC
	callPatches []int32 // bCall pcs needing (contPC, endPC)
}

// bc is the lowering state for one unit.
type bc struct {
	l  *lowering
	c  *comp
	bp *bprog
	// setup is set while lowering the prologue: cells and arrays may not
	// exist yet, and named constants become visible one by one.
	setup bool

	constRegs map[interp.Value]int32
	pending   [5]int64

	foldConst  map[string]interp.Value // folded named-constant values
	mpiName    map[string]bool         // MPI constants safe to fold in the body
	mpiSetup   map[string]bool         // MPI constants safe to fold during setup
	kills      map[string]bool         // scalar names stored anywhere in the unit
	poisoned   map[string]bool         // names whose cell kind may change at runtime
	declScal   map[string]interp.Kind  // first non-param scalar decl kind
	setupReads map[string]bool         // names read through checked loads during setup
	earlyRead  map[string]bool         // declared scalars setup may create before their decl
	isParam    map[string]bool
	cellSet    map[string]bool // cell guaranteed to exist when the body runs
	scalK      map[string]interp.Kind
	arrInfo    map[string]*arrGeo // arrays guaranteed to exist when the body runs
	intConsts  map[string]int64
	facts      map[string]factRange
	loops      []*loopFrame
}

// lower lowers one unit into its (pre-allocated) bprog: the setup
// prologue, then the body.
func (l *lowering) lower(u *unit, main bool) {
	b := &bc{
		l:          l,
		c:          u.cm,
		bp:         u.bc,
		constRegs:  map[interp.Value]int32{},
		foldConst:  map[string]interp.Value{},
		mpiName:    map[string]bool{},
		mpiSetup:   map[string]bool{},
		kills:      map[string]bool{},
		poisoned:   map[string]bool{},
		declScal:   map[string]interp.Kind{},
		setupReads: map[string]bool{},
		earlyRead:  map[string]bool{},
		isParam:    map[string]bool{},
		cellSet:    map[string]bool{},
		scalK:      map[string]interp.Kind{},
		arrInfo:    map[string]*arrGeo{},
		intConsts:  map[string]int64{},
		facts:      map[string]factRange{},
	}
	b.scan()
	b.prologue(main)
	b.bodyFacts()
	for _, st := range b.c.u.Body {
		b.stmt(st)
	}
	b.flush()
}

// --- static analysis ---

// scan collects the declaration and store facts setup lowering needs.
func (b *bc) scan() {
	u := b.c.u
	for _, p := range u.Params {
		b.isParam[p] = true
	}
	b.scanKills(u.Body)

	// Declared-name facts: the first non-param scalar decl fixes the cell
	// kind (later decls keep the existing cell).
	hasDeclEntity := map[string]bool{}
	for _, d := range u.Decls {
		for _, e := range d.Entities {
			hasDeclEntity[e.Name] = true
			if d.Parameter || len(d.DimsOf(e)) > 0 {
				continue
			}
			if _, seen := b.declScal[e.Name]; !seen {
				b.declScal[e.Name] = declKind(d.Type.Base, e.Init)
			}
		}
	}

	// MPI named constants fold when nothing can ever shadow them: no
	// declaration, not a dummy, and (for body reads) never stored.
	for _, s := range b.c.order {
		if !s.isMPI || hasDeclEntity[s.name] || b.isParam[s.name] {
			continue
		}
		b.mpiSetup[s.name] = true
		if !b.kills[s.name] {
			b.mpiName[s.name] = true
			b.intConsts[s.name] = s.mpi
		}
	}
}

// prologue lowers frame setup in the tree-walker's order: named constants
// first (each visible to the ones after it), then variables and arrays
// declaration by declaration, then bBody.
func (b *bc) prologue(main bool) {
	b.setup = true
	u := b.c.u
	// A constant folds for the body only if every initializer of its name
	// folded; a forward reference (an implicit zero mid-setup) does not.
	unfoldable := map[string]bool{}
	for _, d := range u.Decls {
		if !d.Parameter {
			continue
		}
		for _, e := range d.Entities {
			if e.Init == nil {
				continue
			}
			r, v, ok := b.lowerFold(e.Init)
			b.emit(bSetConst, int32(b.c.syms[e.Name].cslot), r.reg, int32(d.Type.Base))
			if !ok || unfoldable[e.Name] {
				delete(b.foldConst, e.Name)
				unfoldable[e.Name] = true
				continue
			}
			b.foldConst[e.Name] = interp.CoerceDecl(d.Type.Base, v)
		}
	}
	declared := map[string]bool{}
	for _, d := range u.Decls {
		if d.Parameter {
			continue
		}
		for _, e := range d.Entities {
			s := b.c.syms[e.Name]
			if dims := d.DimsOf(e); len(dims) > 0 {
				b.arrayDecl(s, d.Type.Base, dims, d.Pos())
				continue
			}
			if !declared[e.Name] {
				// A checked read earlier in setup may already have created
				// the cell with its implicit kind; the declaration keeps it.
				declared[e.Name] = true
				b.earlyRead[e.Name] = b.setupReads[e.Name]
			}
			b.scalarDecl(s, d.Type.Base, e.Init)
		}
	}
	b.flush()
	var m int32
	if main {
		m = 1
	}
	b.emit(bBody, m)
	b.setup = false
}

// scalarDecl lowers pass-2 handling of a declared scalar: keep an existing
// cell (a dummy, or one created earlier), else create it from the
// initializer or the declared kind's zero.
func (b *bc) scalarDecl(s *sym, base ftn.BaseType, init ftn.Expr) {
	b.flush()
	skip := b.emit(bJCell, -1, int32(s.sslot))
	var v int32
	if init != nil {
		v = b.expr(init).reg
	} else {
		v = b.constReg(interp.ZeroOf(interp.KindOf(base)))
	}
	b.emit(bNewS, int32(s.sslot), v, int32(base))
	b.flush()
	b.patch(skip, b.here())
}

// arrayDecl lowers pass-2 handling of a declared array: bounds evaluated
// in this frame, then a view of the caller's binding or an allocation. The
// array exists once setup ends; statically-folded bounds of a non-dummy
// also give the body its BCE geometry (column-major strides, exactly
// NewArray's layout). The last declaration of a name wins.
func (b *bc) arrayDecl(s *sym, base ftn.BaseType, dims []ftn.Dim, pos ftn.Pos) {
	d := declDesc{aslot: int32(s.aslot), kind: interp.KindOf(base), name: s.name, pos: pos, dummy: b.isParam[s.name]}
	g := &arrGeo{aslot: d.aslot, kind: storageKind(base)}
	if d.dummy {
		g.kind = kUnknown // a view shares the caller's storage, of any kind
	}
	static := !d.dummy
	stride := int64(1)
	for _, dim := range dims {
		lo, hi := int32(-1), int32(-1)
		loV := int64(1)
		if dim.Lo != nil {
			r, v, ok := b.lowerFold(dim.Lo)
			lo, loV, static = r.reg, v.AsInt(), static && ok
		}
		if dim.Hi == nil {
			static = false // assumed-size: only a view can take it
		} else {
			r, v, ok := b.lowerFold(dim.Hi)
			hi = r.reg
			if ext := v.AsInt() - loV + 1; static && ok && ext >= 0 {
				g.lo = append(g.lo, loV)
				g.hi = append(g.hi, v.AsInt())
				g.stride = append(g.stride, stride)
				stride *= ext
			} else {
				static = false
			}
		}
		d.lo = append(d.lo, lo)
		d.hi = append(d.hi, hi)
	}
	if !static {
		g.lo, g.hi, g.stride = nil, nil, nil
	}
	b.flush()
	b.bp.decls = append(b.bp.decls, d)
	b.emit(bNewA, int32(len(b.bp.decls)-1))
	b.arrInfo[s.name] = g
}

// bodyFacts derives what the body may assume once setup has run.
func (b *bc) bodyFacts() {
	for n, v := range b.foldConst {
		if v.Kind == interp.KInt {
			b.intConsts[n] = v.I
		}
	}
	// Cell existence and static kinds. A cell is sure when a non-param
	// scalar decl creates it during setup, or when the name is eligible
	// for pre-creation (the walker would lazily create the same cell).
	for _, s := range b.c.order {
		name := s.name
		if k, ok := b.declScal[name]; ok {
			b.cellSet[name] = true
			if b.isParam[name] || b.earlyRead[name] {
				k = kUnknown // the caller's cell, or an implicit one: any kind
			}
			b.scalK[name] = k
			continue
		}
		if s.sslot >= 0 && s.cslot < 0 && s.aslot < 0 && !s.isMPI && !b.isParam[name] {
			b.cellSet[name] = true
			b.scalK[name] = s.zero.Kind
			b.bp.prec = append(b.bp.prec, precEntry{sslot: int32(s.sslot), zero: s.zero})
		}
	}
	// Poisoning: DO-variable writes store IntVal wholesale and call-site
	// aliasing lets callees do the same, so only KInt survives (CoerceStore
	// preserves an integer cell's kind and IntVal writes keep it).
	for name := range b.poisoned {
		if k, ok := b.scalK[name]; ok && k != interp.KInt {
			b.scalK[name] = kUnknown
		}
	}
	// Dummy arrays the unit never declares take the caller's binding as-is.
	seen := map[string]bool{}
	for _, p := range b.c.u.Params {
		if !seen[p] && b.arrInfo[p] == nil {
			seen[p] = true
			b.bp.bindRest = append(b.bp.bindRest, int32(b.c.syms[p].aslot))
		}
	}
}

// declKind is the runtime kind of a cell a scalar declaration creates:
// ZeroOf(KindOf(base)) without an initializer, CoerceDecl(base, init) with
// one — which only pins the kind for integer and real declarations.
func declKind(base ftn.BaseType, init ftn.Expr) interp.Kind {
	k := interp.KindOf(base)
	switch k {
	case interp.KInt, interp.KReal:
		return k
	case interp.KBool:
		if init == nil {
			return k
		}
	}
	return kUnknown
}

// storageKind is the kind of values an array's storage yields: integer,
// real, and logical storages are kind-stable, anything else is not.
func storageKind(base ftn.BaseType) interp.Kind {
	switch k := interp.KindOf(base); k {
	case interp.KInt, interp.KReal, interp.KBool:
		return k
	}
	return kUnknown
}

// scanKills records names stored through scalar cells anywhere in stmts:
// assignment targets, DO variables, and top-level Ident call arguments
// (callees receive those by reference).
func (b *bc) scanKills(stmts []ftn.Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ftn.AssignStmt:
			if id, ok := s.LHS.(*ftn.Ident); ok {
				b.kills[id.Name] = true
			}
		case *ftn.DoStmt:
			b.kills[s.Var] = true
			b.poisoned[s.Var] = true
			b.scanKills(s.Body)
		case *ftn.IfStmt:
			b.scanKills(s.Then)
			b.scanKills(s.Else)
		case *ftn.CallStmt:
			for _, a := range s.Args {
				if id, ok := a.(*ftn.Ident); ok {
					b.kills[id.Name] = true
					b.poisoned[id.Name] = true
				}
			}
		}
	}
}

// killsIn returns the kill set of a statement list in isolation (for DO
// fact validity: the variable must not be stored inside its own body).
func killsIn(stmts []ftn.Stmt) map[string]bool {
	sub := &bc{kills: map[string]bool{}, poisoned: map[string]bool{}}
	sub.scanKills(stmts)
	return sub.kills
}

// --- constant folding ---

// fold folds an expression, counting the Op charges the walker would make
// evaluating it (folded subtrees still charge — only the evaluation work
// disappears, never the accounting). In setup, only constants whose
// initializer already ran are visible.
func (b *bc) fold(e ftn.Expr) (interp.Value, int64, bool) {
	switch e := e.(type) {
	case *ftn.IntLit:
		return interp.IntVal(e.Value), 0, true
	case *ftn.RealLit:
		return interp.RealVal(e.Value), 0, true
	case *ftn.StrLit:
		return interp.StrVal(e.Value), 0, true
	case *ftn.BoolLit:
		return interp.BoolVal(e.Value), 0, true
	case *ftn.Ident:
		if v, ok := b.foldConst[e.Name]; ok {
			return v, 0, true
		}
		if (b.setup && b.mpiSetup[e.Name]) || (!b.setup && b.mpiName[e.Name]) {
			return interp.IntVal(b.c.syms[e.Name].mpi), 0, true
		}
	case *ftn.Unary:
		v, ops, ok := b.fold(e.X)
		if !ok {
			return interp.Value{}, 0, false
		}
		r, ok := foldUnary(e.Op, v)
		return r, ops + 1, ok
	case *ftn.Binary:
		xv, xops, ok := b.fold(e.X)
		if !ok {
			return interp.Value{}, 0, false
		}
		if e.Op == ".and." || e.Op == ".or." {
			if xv.Kind != interp.KBool {
				return interp.Value{}, 0, false
			}
			if e.Op == ".and." && !xv.B {
				return interp.BoolVal(false), xops + 1, true
			}
			if e.Op == ".or." && xv.B {
				return interp.BoolVal(true), xops + 1, true
			}
			yv, yops, ok := b.fold(e.Y)
			if !ok || yv.Kind != interp.KBool {
				return interp.Value{}, 0, false
			}
			return yv, xops + 1 + yops, true
		}
		yv, yops, ok := b.fold(e.Y)
		if !ok {
			return interp.Value{}, 0, false
		}
		r, ok := foldBinary(e.Op, xv, yv)
		return r, xops + 1 + yops, ok
	}
	return interp.Value{}, 0, false
}

func foldUnary(op string, v interp.Value) (interp.Value, bool) {
	switch op {
	case "-":
		if v.Kind == interp.KInt {
			return interp.IntVal(-v.I), true
		}
		return interp.RealVal(-v.AsReal()), true
	case "+":
		return v, true
	case ".not.":
		if v.Kind != interp.KBool {
			return interp.Value{}, false
		}
		return interp.BoolVal(!v.B), true
	}
	return interp.Value{}, false
}

func foldBinary(op string, x, y interp.Value) (interp.Value, bool) {
	switch op {
	case "+", "-", "*", "/", "**":
		v, err := interp.NumericBinop(op, x, y)
		if err != nil {
			return interp.Value{}, false // fold no errors; runtime raises them
		}
		return v, true
	case "==", "/=", "<", "<=", ">", ">=":
		v, err := interp.Compare(op, x, y)
		if err != nil {
			return interp.Value{}, false
		}
		return v, true
	}
	return interp.Value{}, false
}

// --- emission helpers ---

func (b *bc) emit(op bop, args ...int32) int32 {
	ins := bins{op: op, b: -1, c: -1, d: -1}
	if len(args) > 0 {
		ins.a = args[0]
	}
	if len(args) > 1 {
		ins.b = args[1]
	}
	if len(args) > 2 {
		ins.c = args[2]
	}
	if len(args) > 3 {
		ins.d = args[3]
	}
	b.bp.code = append(b.bp.code, ins)
	return int32(len(b.bp.code) - 1)
}

func (b *bc) newReg() int32 {
	b.bp.regInit = append(b.bp.regInit, interp.Value{})
	return int32(len(b.bp.regInit) - 1)
}

// constReg interns a folded value as an initialized register.
func (b *bc) constReg(v interp.Value) int32 {
	if r, ok := b.constRegs[v]; ok {
		return r
	}
	r := b.newReg()
	b.bp.regInit[r] = v
	b.constRegs[v] = r
	return r
}

// flush emits the pending charge vector as one bCharge, deduplicating
// vectors program-wide. Must run before any instruction that can error,
// observe time, or transfer control.
func (b *bc) flush() {
	if b.pending == ([5]int64{}) {
		return
	}
	vec := b.pending
	b.pending = [5]int64{}
	idx, ok := b.l.vecMap[vec]
	if !ok {
		idx = int32(len(b.l.vecs))
		b.l.vecs = append(b.l.vecs, vec)
		b.l.vecMap[vec] = idx
	}
	b.emit(bCharge, idx)
}

// here is the next instruction's pc — a label. Pending charges never cross
// a label (all callers flush first).
func (b *bc) here() int32 { return int32(len(b.bp.code)) }

func (b *bc) errIdx(err error) int32 {
	b.bp.errs = append(b.bp.errs, err)
	return int32(len(b.bp.errs) - 1)
}

// fail lowers an unconditional positioned runtime error.
func (b *bc) fail(pos ftn.Pos, format string, args ...interface{}) {
	b.flush()
	b.emit(bErr, b.errIdx(rte(pos, format, args...)))
}

func (b *bc) opIdx(d opDesc) int32 {
	b.bp.ops = append(b.bp.ops, d)
	return int32(len(b.bp.ops) - 1)
}

func (b *bc) refIdx(d refDesc) int32 {
	b.bp.refs = append(b.bp.refs, d)
	return int32(len(b.bp.refs) - 1)
}

func (b *bc) mpiIdx(d mpiDesc) int32 {
	b.bp.mpis = append(b.bp.mpis, d)
	return int32(len(b.bp.mpis) - 1)
}

// nameIdx interns a checked scalar-name site.
func (b *bc) nameIdx(name string, pos ftn.Pos) int32 {
	b.bp.names = append(b.bp.names, nameDesc{sym: b.c.sym(name), pos: pos})
	return int32(len(b.bp.names) - 1)
}

// patch sets the a-operand (jump target) of instruction pc.
func (b *bc) patch(pc, target int32) { b.bp.code[pc].a = target }

// loadFast reports whether name's reads can address the cell directly.
func (b *bc) loadFast(name string) bool {
	s := b.c.syms[name]
	return !b.setup && s != nil && b.cellSet[name] && s.cslot < 0
}

// storeFast reports whether name's writes can address the cell directly.
func (b *bc) storeFast(name string) bool { return !b.setup && b.cellSet[name] }

// lowerFold lowers e, also reporting its compile-time value when it folds.
func (b *bc) lowerFold(e ftn.Expr) (rv, interp.Value, bool) {
	if v, ops, ok := b.fold(e); ok {
		b.pending[kOp] += ops
		return rv{reg: b.constReg(v), k: v.Kind}, v, true
	}
	return b.expr(e), interp.Value{}, false
}

// array resolves name to its array slot for an access that requires an
// array: statically when setup guarantees one, else behind a bArrChk
// raising the walker's error (format takes the name). ok is false when
// the name can never hold an array, after lowering the error.
func (b *bc) array(name string, pos ftn.Pos, format string) (int32, bool) {
	if g := b.arrInfo[name]; g != nil && !b.setup {
		return g.aslot, true
	}
	s := b.c.syms[name]
	if s == nil || s.aslot < 0 {
		b.fail(pos, format, name)
		return 0, false
	}
	b.flush()
	b.emit(bArrChk, int32(s.aslot), b.errIdx(rte(pos, format, name)))
	return int32(s.aslot), true
}

// --- statement lowering ---

func (b *bc) stmt(s ftn.Stmt) {
	switch s := s.(type) {
	case *ftn.CommentStmt, *ftn.ContinueStmt:
	case *ftn.AssignStmt:
		b.store(s.LHS, b.expr(s.RHS).reg)
	case *ftn.DoStmt:
		b.doStmt(s)
	case *ftn.IfStmt:
		b.ifStmt(s)
	case *ftn.CallStmt:
		b.call(s)
	case *ftn.PrintStmt:
		regs := make([]int32, len(s.Args))
		for i, a := range s.Args {
			regs[i] = b.expr(a).reg
		}
		b.bp.prints = append(b.bp.prints, regs)
		b.emit(bPrint, int32(len(b.bp.prints)-1))
	case *ftn.ReturnStmt:
		b.flush()
		b.emit(bRet)
	case *ftn.StopStmt:
		b.flush()
		b.emit(bStop)
	case *ftn.ExitStmt:
		b.flush()
		if n := len(b.loops); n > 0 {
			lf := b.loops[n-1]
			lf.exitPatches = append(lf.exitPatches, b.emit(bJmp, -1))
		} else {
			b.emit(bExitS)
		}
	case *ftn.CycleStmt:
		b.flush()
		if n := len(b.loops); n > 0 {
			lf := b.loops[n-1]
			lf.contPatches = append(lf.contPatches, b.emit(bJmp, -1))
		} else {
			b.emit(bCycleS)
		}
	default:
		b.fail(s.Pos(), "unsupported statement %T", s)
	}
}

// store lowers a write of register v to an assignable designator (the
// walker's m.store): scalar stores charge Assign and coerce to the cell's
// kind; array-element stores resolve the array first, then subscripts,
// then charge Store.
func (b *bc) store(lhs ftn.Expr, v int32) {
	switch lhs := lhs.(type) {
	case *ftn.Ident:
		if b.storeFast(lhs.Name) {
			b.pending[kAssign]++
			b.emit(bStoreS, int32(b.c.syms[lhs.Name].sslot), v)
			return
		}
		b.flush()
		b.emit(bStoreN, b.nameIdx(lhs.Name, lhs.Pos()), v)
	case *ftn.Ref:
		aslot, ok := b.array(lhs.Name, lhs.Pos(), "assignment to %s, which is not an array")
		if !ok {
			return
		}
		subs := b.lowerSubs(lhs.Args)
		b.pending[kStore]++
		if g := b.arrInfo[lhs.Name]; g != nil {
			if gi, ok := b.geoAccess(g, lhs.Args, subs); ok {
				b.emit(bStoreU, gi, v)
				return
			}
		}
		b.flush()
		b.emit(bStoreA, b.refIdx(refDesc{aslot: aslot, args: subs, pos: lhs.Pos()}), v)
	default:
		b.fail(lhs.Pos(), "bad assignment target %T", lhs)
	}
}

// call lowers a CALL: the MPI bindings (mpibind's semantics, operands
// evaluated and checked in the walker's order), else a user subroutine.
func (b *bc) call(s *ftn.CallStmt) {
	args := s.Args
	zero := b.constReg(interp.IntVal(0))
	switch s.Name {
	case "mpi_init", "mpi_finalize":
		if len(args) == 1 {
			b.store(args[0], zero)
		}
	case "mpi_comm_rank", "mpi_comm_size":
		if !b.arity(s, 3) {
			return
		}
		dst := b.newReg()
		var size int32
		if s.Name == "mpi_comm_size" {
			size = 1
		}
		b.emit(bRankInfo, dst, size)
		b.store(args[1], dst)
		b.store(args[2], zero)
	case "mpi_barrier":
		b.flush()
		b.emit(bBarrier)
		if len(args) == 2 {
			b.store(args[1], zero)
		}
	case "mpi_isend", "mpi_irecv":
		if !b.arity(s, 8) {
			return
		}
		d, ok := b.p2p(args)
		if !ok {
			return
		}
		op := bIsend
		if s.Name == "mpi_irecv" {
			op = bIrecv
		}
		b.flush()
		dst := b.newReg()
		b.emit(op, dst, b.mpiIdx(d))
		b.store(args[6], dst)
		b.store(args[7], zero)
	case "mpi_send", "mpi_recv":
		want, op := 7, bSend
		if s.Name == "mpi_recv" {
			want, op = 8, bRecv
		}
		if !b.arity(s, want) {
			return
		}
		d, ok := b.p2p(args)
		if !ok {
			return
		}
		b.flush()
		b.emit(op, b.mpiIdx(d))
		b.store(args[want-1], zero)
	case "mpi_wait":
		if !b.arity(s, 3) {
			return
		}
		h := b.expr(args[0])
		b.flush()
		b.emit(bWait, h.reg, b.mpiIdx(mpiDesc{pos: s.Pos()}))
		b.store(args[0], zero) // invalidate the handle
		b.store(args[2], zero)
	case "mpi_waitall":
		if !b.arity(s, 4) {
			return
		}
		d := mpiDesc{count: b.expr(args[0]).reg, pos: s.Pos()}
		var ok bool
		if d.buf, d.off, ok = b.buffer(args[1]); !ok {
			return
		}
		b.flush()
		b.emit(bWaitall, b.mpiIdx(d))
		b.store(args[3], zero)
	case "mpi_alltoall":
		if !b.arity(s, 8) {
			return
		}
		d := mpiDesc{pos: s.Pos()}
		var ok bool
		if d.buf, d.off, ok = b.buffer(args[0]); !ok {
			return
		}
		d.count, d.elem = b.countType(args[1], args[2])
		if d.rbuf, d.roff, ok = b.buffer(args[3]); !ok {
			return
		}
		d.rcount, _ = b.countType(args[4], args[5])
		b.flush()
		b.emit(bAlltoall, b.mpiIdx(d))
		b.store(args[7], zero)
	case "flush":
		// test helper: a no-op sink
	default:
		b.userCall(s)
	}
}

// arity lowers the walker's argument-count error; false means it fired.
func (b *bc) arity(s *ftn.CallStmt, want int) bool {
	if len(s.Args) == want {
		return true
	}
	b.fail(s.Pos(), "%s needs %d arguments", s.Name, want)
	return false
}

// p2p lowers the (buf, count, dtype, peer, tag) operands of a
// point-to-point call.
func (b *bc) p2p(args []ftn.Expr) (mpiDesc, bool) {
	var d mpiDesc
	var ok bool
	if d.buf, d.off, ok = b.buffer(args[0]); !ok {
		return d, false
	}
	d.count, d.elem = b.countType(args[1], args[2])
	d.peer = b.expr(args[3]).reg
	d.tag = b.expr(args[4]).reg
	return d, true
}

// buffer lowers an MPI buffer argument (bufferArg) to its array slot and a
// register holding the element offset.
func (b *bc) buffer(e ftn.Expr) (aslot, off int32, ok bool) {
	const notArray = "MPI buffer %s is not an array"
	switch e := e.(type) {
	case *ftn.Ident:
		aslot, ok = b.array(e.Name, e.Pos(), notArray)
		return aslot, b.constReg(interp.IntVal(0)), ok
	case *ftn.Ref:
		if aslot, ok = b.array(e.Name, e.Pos(), notArray); !ok {
			return 0, 0, false
		}
		subs := b.lowerSubs(e.Args)
		b.flush()
		off = b.newReg()
		b.emit(bLinear, off, b.refIdx(refDesc{aslot: aslot, args: subs, pos: e.Pos()}))
		return aslot, off, true
	}
	b.fail(e.Pos(), "bad MPI buffer argument")
	return 0, 0, false
}

// countType lowers a (count, datatype) pair and its checks, returning the
// count register and one holding the element byte size.
func (b *bc) countType(countE, typeE ftn.Expr) (count, elem int32) {
	count = b.expr(countE).reg
	typ := b.expr(typeE).reg
	b.flush()
	elem = b.newReg()
	b.emit(bCType, elem, count, typ, b.mpiIdx(mpiDesc{pos: typeE.Pos(), countPos: countE.Pos()}))
	return count, elem
}

// userCall lowers a call to a user subroutine with Fortran reference
// semantics (callUser): open the callee frame, bind each actual in order,
// run the callee's prologue and body on the fresh frame.
func (b *bc) userCall(s *ftn.CallStmt) {
	callee := b.l.subs[s.Name]
	if callee == nil {
		b.fail(s.Pos(), "unknown subroutine %s", s.Name)
		return
	}
	if len(s.Args) != len(callee.params) {
		b.fail(s.Pos(), "call to %s with %d args, wants %d", s.Name, len(s.Args), len(callee.params))
		return
	}
	b.bp.callees = append(b.bp.callees, callee.bc)
	ci := int32(len(b.bp.callees) - 1)
	b.flush()
	b.emit(bCallNew, ci)
	for i, a := range s.Args {
		d := argDesc{name: -1, ref: -1, val: -1,
			scal: int32(callee.paramScal[i]), arr: int32(callee.paramArr[i]), dummy: callee.params[i]}
		switch a := a.(type) {
		case *ftn.Ident:
			d.name = b.nameIdx(a.Name, a.Pos())
		case *ftn.Ref:
			if sy := b.c.syms[a.Name]; sy != nil && sy.aslot >= 0 {
				d.ref = b.refIdx(refDesc{aslot: int32(sy.aslot), name: a.Name, args: b.lowerSubs(a.Args), pos: a.Pos()})
			} else {
				d.val = b.expr(a).reg
			}
		default:
			d.val = b.expr(a).reg
		}
		b.flush()
		b.bp.args = append(b.bp.args, d)
		b.emit(bArg, int32(len(b.bp.args)-1))
	}
	pc := b.emit(bCall, ci, -1, -1)
	if n := len(b.loops); n > 0 {
		// EXIT/CYCLE escaping the callee act on this loop, exactly like
		// the walker's innermost execStmts.
		lf := b.loops[n-1]
		lf.callPatches = append(lf.callPatches, pc)
	}
}

// geoAccess builds an unchecked access when every subscript is affine in
// statically-ranged DO variables and provably inside the folded geometry.
func (b *bc) geoAccess(g *arrGeo, args []ftn.Expr, subs []int32) (int32, bool) {
	if g.lo == nil || len(args) != len(g.lo) {
		return 0, false
	}
	env := &dep.Env{LoopVars: map[string]bool{}, Consts: b.intConsts}
	for v := range b.facts {
		env.LoopVars[v] = true
	}
	for i, e := range args {
		a, ok := dep.FromExpr(e, env)
		if !ok || len(a.Syms) != 0 {
			return 0, false
		}
		mn, mx, ok := b.affineRange(a)
		if !ok || mn < g.lo[i] || mx > g.hi[i] {
			return 0, false
		}
	}
	b.bp.geos = append(b.bp.geos, geoDesc{aslot: g.aslot, subs: subs, lo: g.lo, stride: g.stride})
	return int32(len(b.bp.geos) - 1), true
}

// affineRange bounds an affine form over the current DO-variable facts,
// rejecting anything near overflow territory.
func (b *bc) affineRange(a dep.Affine) (int64, int64, bool) {
	const lim = int64(1) << 40
	mn, mx := a.Const, a.Const
	if mn < -lim || mn > lim {
		return 0, 0, false
	}
	for v, c := range a.Coef {
		if c == 0 {
			continue
		}
		f, ok := b.facts[v]
		if !ok {
			return 0, 0, false
		}
		if c < -lim || c > lim || f.lo < -lim || f.lo > lim || f.hi < -lim || f.hi > lim {
			return 0, 0, false
		}
		t1, t2 := c*f.lo, c*f.hi
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		mn += t1
		mx += t2
		if mn < -lim || mx > lim {
			return 0, 0, false
		}
	}
	return mn, mx, true
}

func (b *bc) lowerSubs(args []ftn.Expr) []int32 {
	subs := make([]int32, len(args))
	for i, a := range args {
		subs[i] = b.expr(a).reg
	}
	return subs
}

func (b *bc) ifStmt(s *ftn.IfStmt) {
	cond := b.expr(s.Cond)
	b.pending[kOp]++
	b.flush()
	var jf int32
	if cond.k == interp.KBool {
		jf = b.emit(bJF, -1, cond.reg)
	} else {
		jf = b.emit(bJFChk, -1, cond.reg, b.errIdx(rte(s.Pos(), "IF condition is not logical")))
	}
	for _, st := range s.Then {
		b.stmt(st)
	}
	if len(s.Else) > 0 {
		b.flush()
		jend := b.emit(bJmp, -1)
		b.patch(jf, b.here())
		for _, st := range s.Else {
			b.stmt(st)
		}
		b.flush()
		b.patch(jend, b.here())
		return
	}
	b.flush()
	b.patch(jf, b.here())
}

func (b *bc) doStmt(s *ftn.DoStmt) {
	// Bounds and step evaluate once, before the loop; fold-aware.
	lo, loV, loConst := b.lowerFold(s.Lo)
	hi, hiV, hiConst := b.lowerFold(s.Hi)
	sv := b.c.sym(s.Var)
	fd := forDesc{
		loReg: lo.reg, hiReg: hi.reg, stepReg: -1,
		sslot: int32(sv.sslot),
		vReg:  b.newReg(), tripsReg: b.newReg(), stepValReg: b.newReg(),
		errStep: rte(s.Pos(), "DO step is zero"),
	}
	stepConst := true
	stepV := interp.IntVal(1)
	if s.Step != nil {
		var step rv
		step, stepV, stepConst = b.lowerFold(s.Step)
		fd.stepReg = step.reg
	}
	fdIdx := int32(len(b.bp.fors))
	b.bp.fors = append(b.bp.fors, fd)
	b.flush()
	b.emit(bForPrep, fdIdx)
	if !b.storeFast(s.Var) {
		// The walker resolves the variable's cell after the bounds.
		b.emit(bCellN, b.nameIdx(s.Var, s.Pos()))
		if sv.sslot < 0 {
			return // the check always fails: there is no cell to iterate
		}
	}
	head := b.here()
	b.emit(bForIter, fdIdx)

	// Register a value-range fact when the trip space is fully static and
	// the body never stores the variable.
	old, hadFact := b.facts[s.Var]
	registered := false
	if loConst && hiConst && stepConst {
		loI, hiI := loV.AsInt(), hiV.AsInt()
		stepI := stepV.AsInt()
		if stepI != 0 {
			trips := (hiI - loI + stepI) / stepI
			if trips > 0 && !killsIn(s.Body)[s.Var] {
				last := loI + (trips-1)*stepI
				fl, fh := loI, last
				if fl > fh {
					fl, fh = fh, fl
				}
				b.facts[s.Var] = factRange{lo: fl, hi: fh}
				registered = true
			}
		}
	}

	b.loops = append(b.loops, &loopFrame{})
	b.pending[kLoopIter]++
	for _, st := range s.Body {
		b.stmt(st)
	}
	b.flush()
	contPC := b.here()
	b.emit(bForNext, fdIdx)
	endPC := b.here()

	b.bp.fors[fdIdx].headPC = head
	b.bp.fors[fdIdx].endPC = endPC
	lf := b.loops[len(b.loops)-1]
	b.loops = b.loops[:len(b.loops)-1]
	for _, pc := range lf.exitPatches {
		b.patch(pc, endPC)
	}
	for _, pc := range lf.contPatches {
		b.patch(pc, contPC)
	}
	for _, pc := range lf.callPatches {
		b.bp.code[pc].b = contPC
		b.bp.code[pc].c = endPC
	}
	if registered {
		if hadFact {
			b.facts[s.Var] = old
		} else {
			delete(b.facts, s.Var)
		}
	}
}

// --- expression lowering ---

func (b *bc) expr(e ftn.Expr) rv {
	if v, ops, ok := b.fold(e); ok {
		b.pending[kOp] += ops
		return rv{reg: b.constReg(v), k: v.Kind}
	}
	switch e := e.(type) {
	case *ftn.Ident:
		return b.identLoad(e)
	case *ftn.Unary:
		return b.unary(e)
	case *ftn.Binary:
		return b.binary(e)
	case *ftn.Ref:
		return b.ref(e)
	}
	// Literals always fold; anything else is unmodeled.
	b.fail(e.Pos(), "unsupported expression %T", e)
	return rv{reg: b.newReg(), k: kUnknown}
}

func (b *bc) identLoad(e *ftn.Ident) rv {
	dst := b.newReg()
	if b.loadFast(e.Name) {
		b.emit(bLoadS, dst, int32(b.c.syms[e.Name].sslot))
		return rv{reg: dst, k: b.scalK[e.Name]}
	}
	if b.setup {
		b.setupReads[e.Name] = true
	}
	b.flush()
	b.emit(bLoadN, dst, b.nameIdx(e.Name, e.Pos()))
	return rv{reg: dst, k: kUnknown}
}

func (b *bc) unary(e *ftn.Unary) rv {
	x := b.expr(e.X)
	b.pending[kOp]++
	dst := b.newReg()
	switch e.Op {
	case "-":
		if x.k == interp.KInt {
			b.emit(bNegI, dst, x.reg)
			return rv{reg: dst, k: interp.KInt}
		}
		b.emit(bNeg, dst, x.reg)
		k := kUnknown
		if x.k != kUnknown {
			k = interp.KReal // any known non-int negates to real
		}
		return rv{reg: dst, k: k}
	case "+":
		return rv{reg: x.reg, k: x.k}
	case ".not.":
		if x.k == interp.KBool {
			b.emit(bNot, dst, x.reg)
			return rv{reg: dst, k: interp.KBool}
		}
		b.flush()
		b.emit(bNotChk, dst, x.reg, b.errIdx(rte(e.Pos(), ".not. of non-logical")))
		return rv{reg: dst, k: interp.KBool}
	}
	b.flush()
	b.emit(bErr, b.errIdx(rte(e.Pos(), "bad unary operator %q", e.Op)))
	return rv{reg: dst, k: kUnknown}
}

func (b *bc) binary(e *ftn.Binary) rv {
	op := e.Op
	switch op {
	case ".and.", ".or.":
		return b.logical(e)
	case "+", "-", "*", "/", "**":
		return b.arith(e)
	case "==", "/=", "<", "<=", ">", ">=":
		return b.compare(e)
	}
	// Unknown operator: the walker evaluates both sides, charges, then
	// fails in Compare.
	b.expr(e.X)
	b.expr(e.Y)
	b.pending[kOp]++
	b.flush()
	b.emit(bErr, b.errIdx(rte(e.Pos(), "%v", fmt.Errorf("bad comparison %q", op))))
	return rv{reg: b.newReg(), k: kUnknown}
}

func (b *bc) logical(e *ftn.Binary) rv {
	isAnd := e.Op == ".and."
	x := b.expr(e.X)
	if x.k != interp.KBool {
		// Kind check precedes the Op charge in the walker.
		b.flush()
		b.emit(bBoolChk, x.reg, b.errIdx(rte(e.Pos(), "%s of non-logical", e.Op)))
	}
	b.pending[kOp]++
	b.flush()
	dst := b.newReg()
	var jShort int32
	if isAnd {
		jShort = b.emit(bJF, -1, x.reg)
	} else {
		jShort = b.emit(bJT, -1, x.reg)
	}
	y := b.expr(e.Y)
	if y.k != interp.KBool {
		b.flush()
		b.emit(bBoolChk, y.reg, b.errIdx(rte(e.Pos(), "%s of non-logical", e.Op)))
	}
	b.emit(bMove, dst, y.reg)
	b.flush()
	jEnd := b.emit(bJmp, -1)
	b.patch(jShort, b.here())
	b.emit(bMove, dst, b.constReg(interp.BoolVal(!isAnd)))
	b.patch(jEnd, b.here())
	return rv{reg: dst, k: interp.KBool}
}

func (b *bc) arith(e *ftn.Binary) rv {
	x := b.expr(e.X)
	y := b.expr(e.Y)
	b.pending[kOp]++
	dst := b.newReg()
	op := e.Op
	bothInt := x.k == interp.KInt && y.k == interp.KInt
	if bothInt {
		switch op {
		case "+":
			b.emit(bAddI, dst, x.reg, y.reg)
		case "-":
			b.emit(bSubI, dst, x.reg, y.reg)
		case "*":
			b.emit(bMulI, dst, x.reg, y.reg)
		case "/":
			b.flush()
			b.emit(bDivI, dst, x.reg, y.reg, b.errIdx(rte(e.Pos(), "integer division by zero")))
		case "**":
			b.emit(bPowI, dst, x.reg, y.reg)
		}
		return rv{reg: dst, k: interp.KInt}
	}
	var fast uint8
	switch op {
	case "+":
		fast = 1
	case "-":
		fast = 2
	case "*":
		fast = 3
	case "/":
		fast = 4
	}
	maybeIntInt := x.k == kUnknown || y.k == kUnknown
	if op == "/" && maybeIntInt {
		// Runtime integer division by zero is possible: flush so the error
		// surfaces with exact walker-elapsed time.
		b.flush()
	}
	b.emit(bArith, dst, x.reg, y.reg, b.opIdx(opDesc{op: op, pos: e.Pos(), fast: fast}))
	k := kUnknown
	if !maybeIntInt {
		k = interp.KReal // both known, not both int: real promotion
	}
	return rv{reg: dst, k: k}
}

func (b *bc) compare(e *ftn.Binary) rv {
	x := b.expr(e.X)
	y := b.expr(e.Y)
	b.pending[kOp]++
	dst := b.newReg()
	var fast uint8
	switch e.Op {
	case "==":
		fast = 1
	case "/=":
		fast = 2
	case "<":
		fast = 3
	case "<=":
		fast = 4
	case ">":
		fast = 5
	case ">=":
		fast = 6
	}
	if x.k == interp.KInt && y.k == interp.KInt {
		switch fast {
		case 1:
			b.emit(bEqI, dst, x.reg, y.reg)
		case 2:
			b.emit(bNeI, dst, x.reg, y.reg)
		case 3:
			b.emit(bLtI, dst, x.reg, y.reg)
		case 4:
			b.emit(bLeI, dst, x.reg, y.reg)
		case 5:
			b.emit(bGtI, dst, x.reg, y.reg)
		case 6:
			b.emit(bGeI, dst, x.reg, y.reg)
		}
		return rv{reg: dst, k: interp.KBool}
	}
	b.emit(bCmp, dst, x.reg, y.reg, b.opIdx(opDesc{op: e.Op, pos: e.Pos(), fast: fast}))
	return rv{reg: dst, k: interp.KBool}
}

// ref lowers name(args): a native array access when setup guarantees the
// array, the intrinsic path when the name can never be an array, and a
// run-time choice between the two (bLoadD) otherwise — dummies bound
// without a declaration, and every reference during setup.
func (b *bc) ref(e *ftn.Ref) rv {
	s := b.c.syms[e.Name]
	if s == nil || s.aslot < 0 {
		return b.intrinsic(e)
	}
	subs := b.lowerSubs(e.Args)
	dst := b.newReg()
	g := b.arrInfo[e.Name]
	if g == nil || b.setup {
		b.flush()
		b.emit(bLoadD, dst, b.refIdx(refDesc{aslot: int32(s.aslot), name: e.Name, args: subs, pos: e.Pos()}))
		return rv{reg: dst, k: kUnknown}
	}
	b.pending[kLoad]++
	if gi, ok := b.geoAccess(g, e.Args, subs); ok {
		b.emit(bLoadU, dst, gi)
		return rv{reg: dst, k: g.kind}
	}
	b.flush()
	b.emit(bLoadA, dst, b.refIdx(refDesc{aslot: g.aslot, args: subs, pos: e.Pos()}))
	return rv{reg: dst, k: g.kind}
}

func (b *bc) intrinsic(e *ftn.Ref) rv {
	name := e.Name
	isWtime := name == "mpi_wtime"
	isIntr := interp.IsIntrinsic(name) && !isWtime
	pos := e.Pos()

	if isIntr && name == "mod" && len(e.Args) == 2 {
		a0 := b.expr(e.Args[0])
		a1 := b.expr(e.Args[1])
		b.pending[kOp]++
		dst := b.newReg()
		b.flush()
		if a0.k == interp.KInt && a1.k == interp.KInt {
			b.emit(bModI, dst, a0.reg, a1.reg, b.errIdx(rte(pos, "mod by zero")))
			return rv{reg: dst, k: interp.KInt}
		}
		ii := b.refIdx(refDesc{aslot: -1, name: "mod", args: []int32{a0.reg, a1.reg}, pos: pos, err: rte(pos, "mod by zero")})
		b.emit(bMod2, dst, ii)
		return rv{reg: dst, k: kUnknown}
	}
	if isIntr && (name == "min" || name == "max") && len(e.Args) == 2 {
		a0 := b.expr(e.Args[0])
		a1 := b.expr(e.Args[1])
		if a0.k == interp.KInt && a1.k == interp.KInt {
			b.pending[kOp]++
			dst := b.newReg()
			if name == "min" {
				b.emit(bMinI, dst, a0.reg, a1.reg)
			} else {
				b.emit(bMaxI, dst, a0.reg, a1.reg)
			}
			return rv{reg: dst, k: interp.KInt}
		}
		b.pending[kOp]++
		dst := b.newReg()
		b.flush()
		b.emit(bIntr, dst, b.refIdx(refDesc{aslot: -1, name: name, args: []int32{a0.reg, a1.reg}, pos: pos}))
		return rv{reg: dst, k: kUnknown}
	}

	args := make([]int32, len(e.Args))
	for i, a := range e.Args {
		args[i] = b.expr(a).reg
	}
	b.pending[kOp]++
	dst := b.newReg()
	switch {
	case isWtime:
		b.flush()
		b.emit(bWtime, dst)
		return rv{reg: dst, k: interp.KReal}
	case isIntr:
		b.flush()
		b.emit(bIntr, dst, b.refIdx(refDesc{aslot: -1, name: name, args: args, pos: pos}))
		return rv{reg: dst, k: kUnknown}
	}
	b.flush()
	b.emit(bErr, b.errIdx(rte(pos, "unknown array or intrinsic %q", name)))
	return rv{reg: dst, k: kUnknown}
}
