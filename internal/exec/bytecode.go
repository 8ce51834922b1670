// Bytecode runtime: every unit lowers once into a register-based flat
// instruction stream dispatched through a single switch (no tree walking,
// no map lookups on the hot path). A unit's stream opens with its frame
// setup as a prologue — named constants, scalar declarations, array
// allocations and dummy-argument views — ended by bBody, then runs the
// body. The lowering (bcompile.go) performs compile-time constant folding,
// hoists folded constants and address geometry out of the loop body,
// batches cost-model charges per basic block into precomputed charge
// vectors, and eliminates bounds checks for subscripts proven in-range by
// internal/dep's affine algebra. PRINT, user CALL and each MPI binding have
// dedicated opcodes that read their operands from registers and call the
// same mpi runtime and interp semantics tables the walk oracle uses.
//
// Scalar cells live in the register file. Every activation allocates its
// registers with its frame, and scalar slot i's cell is register i, so the
// body reads a local as an ordinary register operand with no load
// instruction. Stores still go through the slot pointer (fr.scal[i] ==
// &regs[i] for a local), which keeps by-reference passing unchanged: a
// callee's dummy receives a pointer into its caller's register file. Only
// dummy scalars — aliases and temporaries — are loaded through that
// pointer (bLoadS).
//
// Charge batching is sound because mpi.Rank.Compute is purely additive
// between observation points (netsim's Proc.Advance only accumulates):
// Compute(a)+Compute(b) == Compute(a+b) as long as no MPI operation, clock
// read, or error can occur between the two. The lowering flushes the
// pending charge vector before every instruction that can observe time,
// raise an error, or transfer control.
package exec

import (
	"repro/internal/ftn"
	"repro/internal/interp"
	"repro/internal/netsim"
)

// bop is a bytecode opcode. Dispatch is a flat switch in bexec.
type bop uint8

const (
	// bCharge applies the precomputed charge vector a (one Compute call
	// covering a whole basic-block's worth of walker charges).
	bCharge  bop = iota
	bJmp         // pc = a
	bJF          // if !regs[b].B  { pc = a }   (cond statically KBool)
	bJT          // if regs[b].B   { pc = a }
	bJFChk       // IF-cond form: non-KBool -> errs[c]; else like bJF
	bBoolChk     // if regs[a].Kind != KBool { return errs[b] }
	bMove        // regs[a] = regs[b]
	bErr         // return errs[a]
	bRet         // return errReturn
	bStop        // return errStop
	bExitS       // return errExit  (EXIT outside any lowered loop)
	bCycleS      // return errCycle (CYCLE outside any lowered loop)

	// Frame setup (the prologue).
	bSetConst // consts[a] = CoerceDecl(BaseType(c), regs[b]), now visible
	bJCell    // if fr.scal[b] != nil { pc = a }
	bNewS     // create slot a's cell (register a) holding CoerceDecl(BaseType(c), regs[b])
	bNewA     // allocate or view the array declared by decls[a]
	bBody     // setup done: bind undeclared dummy arrays, pre-create cells; a=1 publishes the main frame

	bLoadS  // regs[a] = *fr.scal[b] (dummy scalars only: aliases and temporaries)
	bStoreS // p := fr.scal[a]; *p = CoerceStore(*p, regs[b])
	// Checked scalar access for names without a guaranteed cell: the
	// tree-walker's evalIdent / lookupScalar resolution through names[].
	bLoadN  // regs[a] = read(names[b])
	bStoreN // cell(names[a]) = CoerceStore(.., regs[b]), charging Assign
	bCellN  // cell(names[a]) must exist (created or an error)

	bNegI // regs[a] = IntVal(-regs[b].I)
	bNeg  // regs[a] = -x (KInt -> int, else real)
	bNot  // regs[a] = BoolVal(!regs[b].B)
	bNotChk

	// Integer fast-path arithmetic (operands statically proven KInt).
	bAddI
	bSubI
	bMulI
	bDivI // d: error index for division by zero
	bPowI
	bModI // d: error index for mod by zero
	bMinI
	bMaxI
	bEqI
	bNeI
	bLtI
	bLeI
	bGtI
	bGeI

	bArith // generic arithmetic, ops[d]; runtime int-int fast path inside
	bCmp   // generic comparison, ops[d]

	bLoadA  // checked array load: refs[b] -> regs[a]
	bStoreA // checked array store: regs[b] -> refs[a]
	bLoadU  // unchecked (BCE-proven) load: geos[b] -> regs[a]
	bStoreU // unchecked store: regs[b] -> geos[a]
	bLoadD  // refs[b] is an array element load or an intrinsic, decided at run time
	bArrChk // if fr.arr[a] == nil { return errs[b] }
	bLinear // regs[a] = IntVal(linear offset of refs[b]), positioned error

	bIntr  // regs[a] = EvalIntrinsic(refs[b])
	bMod2  // two-argument mod with runtime int-int fast path
	bWtime // regs[a] = RealVal(rank.Now().Seconds())

	bForPrep // evaluate DO bounds/step, init loop registers: fors[a]
	bForIter // loop head: store DO variable, test trip count: fors[a]
	bForNext // advance DO variable, jump to head: fors[a]

	bPrint // append FormatPrintLine(regs[prints[a]...]) to the output

	// User CALL: bCallNew charges CallOver and opens callees[a]'s frame,
	// one bArg per actual binds args[a] into it, bCall runs it
	// (errCycle -> pc=b, errExit -> pc=c when >= 0).
	bCallNew
	bArg
	bCall

	// MPI bindings; mpis[] descriptors name their operand registers.
	bRankInfo // regs[a] = rank (b=0) or size (b=1)
	bBarrier
	bCType    // regs[a] = element bytes of datatype regs[c]; checks count regs[b]; mpis[d] positions
	bIsend    // regs[a] = request handle; mpis[b]
	bIrecv    // regs[a] = request handle; mpis[b]
	bSend     // mpis[a]
	bRecv     // mpis[a]
	bWait     // wait on handle regs[a]; mpis[b]
	bWaitall  // mpis[a]
	bAlltoall // mpis[a]
)

// bins is one instruction. Operand meaning is per-opcode (register indices,
// descriptor-table indices, or jump targets).
type bins struct {
	op         bop
	a, b, c, d int32
}

// opDesc describes a generic binary-operator site.
type opDesc struct {
	op   string
	pos  ftn.Pos
	fast uint8 // arith: 1 + | 2 - | 3 * | 4 / ; cmp: 1 == .. 6 >=
}

// refDesc is a name(args) site: a checked array access (aslot plus the
// subscript registers), an intrinsic call (name plus argument registers),
// or a run-time choice between the two (bLoadD, CALL actuals).
type refDesc struct {
	aslot int32
	name  string
	args  []int32
	pos   ftn.Pos
	err   error // mod-by-zero error for bMod2, nil otherwise
}

// geoDesc is a bounds-check-eliminated access: the array's geometry folded
// at compile time, the offset computed directly from subscript registers.
type geoDesc struct {
	aslot  int32
	subs   []int32
	lo     []int64
	stride []int64
}

// forDesc is one lowered DO loop. Loop state (current value, remaining
// trips, step) lives in registers; the DO variable's frame cell is updated
// at each iteration head exactly like the walker.
type forDesc struct {
	loReg, hiReg int32
	stepReg      int32 // -1: static step 1
	sslot        int32
	vReg         int32
	tripsReg     int32
	stepValReg   int32
	errStep      error
	headPC       int32
	endPC        int32
}

// nameDesc is a checked scalar-name site.
type nameDesc struct {
	*sym
	pos ftn.Pos
}

// declDesc is one array declaration: bound registers per dimension (lo -1
// means the default 1, hi -1 an assumed size).
type declDesc struct {
	aslot  int32
	kind   interp.Kind
	lo, hi []int32
	name   string
	pos    ftn.Pos
	dummy  bool // a dummy views the caller's binding when there is one
}

// argDesc binds one actual argument into the pending callee frame: an
// Ident (names[name]) binds by reference, a Ref to a possible array
// (refs[ref]) binds a sequence-associated view or, when no array is there,
// an intrinsic result; anything else binds a temporary holding regs[val].
type argDesc struct {
	name, ref, val int32 // -1 when unused
	scal, arr      int32 // the dummy's slots in the callee
	dummy          string
}

// mpiDesc is one MPI call site: the array slots and registers its operands
// were lowered into (fields a call does not use stay zero).
type mpiDesc struct {
	buf, off, count, elem int32 // send side (or the only buffer)
	rbuf, roff, rcount    int32 // alltoall receive side
	peer, tag             int32
	pos, countPos         ftn.Pos
}

// precEntry pre-creates an implicitly-typed scalar cell after frame setup,
// so lowered loads/stores address the cell directly. Only names the walker
// would create with the same zero on first touch are eligible; cells that
// already exist (dummies, declared names) are left alone.
type precEntry struct {
	sslot int32
	zero  interp.Value
}

// bprog is the lowered form of one program unit.
type bprog struct {
	u            *unit
	code         []bins
	regInit      []interp.Value // folded constants, deduplicated
	implicitNone bool
	prec         []precEntry
	bindRest     []int32 // dummy array slots without an array declaration
	errs         []error
	ops          []opDesc
	refs         []refDesc
	geos         []geoDesc
	fors         []forDesc
	names        []nameDesc
	decls        []declDesc
	prints       [][]int32
	callees      []*bprog
	args         []argDesc
	mpis         []mpiDesc
}

// Charge-vector component indices.
const (
	kOp = iota
	kAssign
	kStore
	kLoad
	kLoopIter
)

// chargeTab folds a cost model into a program's charge vectors: one
// virtual-time total per vector, computed once per run.
func chargeTab(vecs [][5]int64, costs interp.CostModel) []netsim.Time {
	tab := make([]netsim.Time, len(vecs))
	for i, v := range vecs {
		tab[i] = costs.Op*netsim.Time(v[kOp]) +
			costs.Assign*netsim.Time(v[kAssign]) +
			costs.Store*netsim.Time(v[kStore]) +
			costs.Load*netsim.Time(v[kLoad]) +
			costs.LoopIter*netsim.Time(v[kLoopIter])
	}
	return tab
}

// bexec is the dispatch loop: a flat switch over the instruction stream.
// No reflection, no map lookups — descriptor tables are slices indexed by
// instruction operands.
func (bp *bprog) bexec(x *rctx, fr *frame) error {
	code, regs := bp.code, fr.regs
	pc := 0
	for pc < len(code) {
		ins := code[pc]
		pc++
		switch ins.op {
		case bCharge:
			x.rank.Compute(x.tab[ins.a])
		case bJmp:
			pc = int(ins.a)
		case bJF:
			if !regs[ins.b].B {
				pc = int(ins.a)
			}
		case bJT:
			if regs[ins.b].B {
				pc = int(ins.a)
			}
		case bJFChk:
			if regs[ins.b].Kind != interp.KBool {
				return bp.errs[ins.c]
			}
			if !regs[ins.b].B {
				pc = int(ins.a)
			}
		case bBoolChk:
			if regs[ins.a].Kind != interp.KBool {
				return bp.errs[ins.b]
			}
		case bMove:
			regs[ins.a] = regs[ins.b]
		case bErr:
			return bp.errs[ins.a]
		case bRet:
			return errReturn
		case bStop:
			return errStop
		case bExitS:
			return errExit
		case bCycleS:
			return errCycle
		case bSetConst:
			fr.consts[ins.a] = constCell{v: interp.CoerceDecl(ftn.BaseType(ins.c), regs[ins.b]), set: true}
		case bJCell:
			if fr.scal[ins.b] != nil {
				pc = int(ins.a)
			}
		case bNewS:
			fr.newCell(ins.a, interp.CoerceDecl(ftn.BaseType(ins.c), regs[ins.b]))
		case bNewA:
			if err := bp.declare(fr, regs, &bp.decls[ins.a]); err != nil {
				return err
			}
		case bBody:
			bp.enter(fr)
			if ins.a == 1 {
				x.main = fr
			}
		case bLoadS:
			regs[ins.a] = *fr.scal[ins.b]
		case bStoreS:
			p := fr.scal[ins.a]
			*p = interp.CoerceStore(*p, regs[ins.b])
		case bLoadN:
			v, err := bp.read(fr, &bp.names[ins.b])
			if err != nil {
				return err
			}
			regs[ins.a] = v
		case bStoreN:
			p, err := bp.cell(fr, &bp.names[ins.a])
			if err != nil {
				return err
			}
			x.charge(x.costs.Assign)
			*p = interp.CoerceStore(*p, regs[ins.b])
		case bCellN:
			if _, err := bp.cell(fr, &bp.names[ins.a]); err != nil {
				return err
			}
		case bNegI:
			regs[ins.a] = interp.IntVal(-regs[ins.b].I)
		case bNeg:
			if v := regs[ins.b]; v.Kind == interp.KInt {
				regs[ins.a] = interp.IntVal(-v.I)
			} else {
				regs[ins.a] = interp.RealVal(-v.AsReal())
			}
		case bNot:
			regs[ins.a] = interp.BoolVal(!regs[ins.b].B)
		case bNotChk:
			if regs[ins.b].Kind != interp.KBool {
				return bp.errs[ins.c]
			}
			regs[ins.a] = interp.BoolVal(!regs[ins.b].B)
		case bAddI:
			regs[ins.a] = interp.IntVal(regs[ins.b].I + regs[ins.c].I)
		case bSubI:
			regs[ins.a] = interp.IntVal(regs[ins.b].I - regs[ins.c].I)
		case bMulI:
			regs[ins.a] = interp.IntVal(regs[ins.b].I * regs[ins.c].I)
		case bDivI:
			if regs[ins.c].I == 0 {
				return bp.errs[ins.d]
			}
			regs[ins.a] = interp.IntVal(regs[ins.b].I / regs[ins.c].I)
		case bPowI:
			// NumericBinop's integer ** branch: negative exponent truncates
			// to zero, else repeated multiplication.
			base, e := regs[ins.b].I, regs[ins.c].I
			if e < 0 {
				regs[ins.a] = interp.IntVal(0)
			} else {
				r := int64(1)
				for i := int64(0); i < e; i++ {
					r *= base
				}
				regs[ins.a] = interp.IntVal(r)
			}
		case bModI:
			if regs[ins.c].I == 0 {
				return bp.errs[ins.d]
			}
			regs[ins.a] = interp.IntVal(regs[ins.b].I % regs[ins.c].I)
		case bMinI:
			a, b := regs[ins.b].I, regs[ins.c].I
			if b < a {
				a = b
			}
			regs[ins.a] = interp.IntVal(a)
		case bMaxI:
			a, b := regs[ins.b].I, regs[ins.c].I
			if b > a {
				a = b
			}
			regs[ins.a] = interp.IntVal(a)
		case bEqI:
			regs[ins.a] = interp.BoolVal(regs[ins.b].I == regs[ins.c].I)
		case bNeI:
			regs[ins.a] = interp.BoolVal(regs[ins.b].I != regs[ins.c].I)
		case bLtI:
			regs[ins.a] = interp.BoolVal(regs[ins.b].I < regs[ins.c].I)
		case bLeI:
			regs[ins.a] = interp.BoolVal(regs[ins.b].I <= regs[ins.c].I)
		case bGtI:
			regs[ins.a] = interp.BoolVal(regs[ins.b].I > regs[ins.c].I)
		case bGeI:
			regs[ins.a] = interp.BoolVal(regs[ins.b].I >= regs[ins.c].I)
		case bArith:
			d := &bp.ops[ins.d]
			xv, yv := regs[ins.b], regs[ins.c]
			if xv.Kind == interp.KInt && yv.Kind == interp.KInt {
				switch d.fast {
				case 1:
					regs[ins.a] = interp.IntVal(xv.I + yv.I)
					continue
				case 2:
					regs[ins.a] = interp.IntVal(xv.I - yv.I)
					continue
				case 3:
					regs[ins.a] = interp.IntVal(xv.I * yv.I)
					continue
				case 4:
					if yv.I != 0 {
						regs[ins.a] = interp.IntVal(xv.I / yv.I)
						continue
					}
				}
			}
			v, err := interp.NumericBinop(d.op, xv, yv)
			if err != nil {
				return rte(d.pos, "%v", err)
			}
			regs[ins.a] = v
		case bCmp:
			d := &bp.ops[ins.d]
			xv, yv := regs[ins.b], regs[ins.c]
			if xv.Kind == interp.KInt && yv.Kind == interp.KInt {
				switch d.fast {
				case 1:
					regs[ins.a] = interp.BoolVal(xv.I == yv.I)
					continue
				case 2:
					regs[ins.a] = interp.BoolVal(xv.I != yv.I)
					continue
				case 3:
					regs[ins.a] = interp.BoolVal(xv.I < yv.I)
					continue
				case 4:
					regs[ins.a] = interp.BoolVal(xv.I <= yv.I)
					continue
				case 5:
					regs[ins.a] = interp.BoolVal(xv.I > yv.I)
					continue
				case 6:
					regs[ins.a] = interp.BoolVal(xv.I >= yv.I)
					continue
				}
			}
			v, err := interp.Compare(d.op, xv, yv)
			if err != nil {
				return rte(d.pos, "%v", err)
			}
			regs[ins.a] = v
		case bLoadA:
			d := &bp.refs[ins.b]
			a := fr.arr[d.aslot]
			off, err := offset(a, d.args, regs)
			if err != nil {
				return rte(d.pos, "%v", err)
			}
			regs[ins.a] = a.RawGet(off)
		case bStoreA:
			d := &bp.refs[ins.a]
			a := fr.arr[d.aslot]
			off, err := offset(a, d.args, regs)
			if err != nil {
				return rte(d.pos, "%v", err)
			}
			a.RawSet(off, regs[ins.b])
		case bLoadU:
			g := &bp.geos[ins.b]
			a := fr.arr[g.aslot]
			off := int64(0)
			for i, sr := range g.subs {
				off += (regs[sr].AsInt() - g.lo[i]) * g.stride[i]
			}
			regs[ins.a] = a.RawGet(off)
		case bStoreU:
			g := &bp.geos[ins.a]
			a := fr.arr[g.aslot]
			off := int64(0)
			for i, sr := range g.subs {
				off += (regs[sr].AsInt() - g.lo[i]) * g.stride[i]
			}
			a.RawSet(off, regs[ins.b])
		case bLoadD:
			d := &bp.refs[ins.b]
			a := fr.arr[d.aslot]
			if a == nil {
				v, err := x.intrinsic(d, regs)
				if err != nil {
					return err
				}
				regs[ins.a] = v
				continue
			}
			x.charge(x.costs.Load)
			off, err := offset(a, d.args, regs)
			if err != nil {
				return rte(d.pos, "%v", err)
			}
			regs[ins.a] = a.RawGet(off)
		case bArrChk:
			if fr.arr[ins.a] == nil {
				return bp.errs[ins.b]
			}
		case bLinear:
			d := &bp.refs[ins.b]
			off, err := fr.arr[d.aslot].Linear(ints(d.args, regs))
			if err != nil {
				return rte(d.pos, "%v", err)
			}
			regs[ins.a] = interp.IntVal(off)
		case bIntr:
			d := &bp.refs[ins.b]
			v, err := interp.EvalIntrinsic(d.name, values(d.args, regs))
			if err != nil {
				return rte(d.pos, "%v", err)
			}
			regs[ins.a] = v
		case bMod2:
			d := &bp.refs[ins.b]
			v0, v1 := regs[d.args[0]], regs[d.args[1]]
			if v0.Kind == interp.KInt && v1.Kind == interp.KInt {
				if v1.I == 0 {
					return d.err
				}
				regs[ins.a] = interp.IntVal(v0.I % v1.I)
				continue
			}
			v, err := interp.EvalIntrinsic("mod", []interp.Value{v0, v1})
			if err != nil {
				return rte(d.pos, "%v", err)
			}
			regs[ins.a] = v
		case bWtime:
			regs[ins.a] = interp.RealVal(x.rank.Now().Seconds())
		case bForPrep:
			fd := &bp.fors[ins.a]
			lo := regs[fd.loReg].AsInt()
			hi := regs[fd.hiReg].AsInt()
			step := int64(1)
			if fd.stepReg >= 0 {
				step = regs[fd.stepReg].AsInt()
				if step == 0 {
					return fd.errStep
				}
			}
			trips := (hi - lo + step) / step
			if trips < 0 {
				trips = 0
			}
			regs[fd.vReg] = interp.IntVal(lo)
			regs[fd.tripsReg] = interp.IntVal(trips)
			regs[fd.stepValReg] = interp.IntVal(step)
		case bForIter:
			fd := &bp.fors[ins.a]
			*fr.scal[fd.sslot] = interp.IntVal(regs[fd.vReg].I)
			if regs[fd.tripsReg].I == 0 {
				pc = int(fd.endPC)
				continue
			}
			regs[fd.tripsReg].I--
		case bForNext:
			fd := &bp.fors[ins.a]
			regs[fd.vReg].I += regs[fd.stepValReg].I
			pc = int(fd.headPC)
		case bPrint:
			x.out = append(x.out, interp.FormatPrintLine(values(bp.prints[ins.a], regs)))
		case bCallNew:
			x.charge(x.costs.CallOver)
			x.pend = bp.callees[ins.a].u.newFrame()
		case bArg:
			if err := x.bindArg(fr, regs, bp, &bp.args[ins.a]); err != nil {
				return err
			}
		case bCall:
			nfr := x.pend
			x.pend = nil
			switch err := bp.callees[ins.a].bexec(x, nfr); err {
			case nil, errReturn:
			case errCycle:
				if ins.b < 0 {
					return err
				}
				pc = int(ins.b)
			case errExit:
				if ins.c < 0 {
					return err
				}
				pc = int(ins.c)
			default:
				return err
			}
		case bRankInfo:
			if ins.b == 0 {
				regs[ins.a] = interp.IntVal(int64(x.rank.Me()))
			} else {
				regs[ins.a] = interp.IntVal(int64(x.rank.NP()))
			}
		case bBarrier:
			x.rank.Barrier()
		case bCType:
			d := &bp.mpis[ins.d]
			elem, ok := interp.DTypeBytes(regs[ins.c].AsInt())
			if !ok {
				return rte(d.pos, "unknown MPI datatype %d", regs[ins.c].AsInt())
			}
			if n := regs[ins.b].AsInt(); n < 0 {
				return rte(d.countPos, "negative MPI count %d", n)
			}
			regs[ins.a] = interp.IntVal(elem)
		case bIsend, bIrecv:
			regs[ins.a] = interp.IntVal(x.post(ins.op == bIsend, fr, regs, &bp.mpis[ins.b]))
		case bSend, bRecv:
			x.transfer(ins.op == bSend, fr, regs, &bp.mpis[ins.a])
		case bWait:
			if err := x.waitHandle(regs[ins.a].AsInt(), bp.mpis[ins.b].pos); err != nil {
				return err
			}
		case bWaitall:
			if err := x.waitall(fr, regs, &bp.mpis[ins.a]); err != nil {
				return err
			}
		case bAlltoall:
			if err := x.alltoall(fr, regs, &bp.mpis[ins.a]); err != nil {
				return err
			}
		}
	}
	return nil
}

// offset resolves a checked access's subscript registers to a linear
// offset, with the walker's bounds rules and error wording (the fixed-rank
// Idx forms avoid a subscript slice).
func offset(a *interp.Array, subs []int32, regs []interp.Value) (int64, error) {
	switch len(subs) {
	case 1:
		return a.Idx1(regs[subs[0]].AsInt())
	case 2:
		return a.Idx2(regs[subs[0]].AsInt(), regs[subs[1]].AsInt())
	case 3:
		return a.Idx3(regs[subs[0]].AsInt(), regs[subs[1]].AsInt(), regs[subs[2]].AsInt())
	}
	return a.Linear(ints(subs, regs))
}

// ints gathers subscript registers as integers (evalSubs semantics).
func ints(rs []int32, regs []interp.Value) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = regs[r].AsInt()
	}
	return out
}

// values gathers argument registers.
func values(rs []int32, regs []interp.Value) []interp.Value {
	out := make([]interp.Value, len(rs))
	for i, r := range rs {
		out[i] = regs[r]
	}
	return out
}

// intrinsic is the walker's evalIntrinsic over already-evaluated argument
// registers: the Op charge, then mpi_wtime or the shared intrinsic table
// (whose error names unknown arrays and intrinsics alike).
func (x *rctx) intrinsic(d *refDesc, regs []interp.Value) (interp.Value, error) {
	x.charge(x.costs.Op)
	if d.name == "mpi_wtime" {
		return interp.RealVal(x.rank.Now().Seconds()), nil
	}
	v, err := interp.EvalIntrinsic(d.name, values(d.args, regs))
	if err != nil {
		return interp.Value{}, rte(d.pos, "%v", err)
	}
	return v, nil
}

// read resolves a scalar name in expression position (evalIdent): named
// constants once set, scalar cells, MPI constants, the whole-array error,
// the implicit-none error, then implicit creation.
func (bp *bprog) read(fr *frame, d *nameDesc) (interp.Value, error) {
	if d.cslot >= 0 && fr.consts[d.cslot].set {
		return fr.consts[d.cslot].v, nil
	}
	if d.sslot >= 0 {
		if p := fr.scal[d.sslot]; p != nil {
			return *p, nil
		}
	}
	if d.isMPI {
		return interp.IntVal(d.mpi), nil
	}
	if d.aslot >= 0 && fr.arr[d.aslot] != nil {
		return interp.Value{}, rte(d.pos, "whole-array reference %s in scalar context", d.name)
	}
	if bp.implicitNone {
		return interp.Value{}, rte(d.pos, "undeclared name %s", d.name)
	}
	return *fr.newCell(int32(d.sslot), d.zero), nil
}

// cell finds or creates the scalar cell behind a name for a store or a
// by-reference binding (lookupScalar).
func (bp *bprog) cell(fr *frame, d *nameDesc) (*interp.Value, error) {
	if d.sslot >= 0 {
		if p := fr.scal[d.sslot]; p != nil {
			return p, nil
		}
	}
	if d.cslot >= 0 {
		return nil, rte(d.pos, "cannot assign to named constant %s", d.name)
	}
	if bp.implicitNone {
		return nil, rte(d.pos, "undeclared variable %s under implicit none", d.name)
	}
	if d.sslot < 0 {
		// Unreachable in practice (scanning allocated a slot for every
		// scalar use outside implicit none), kept as a hard error.
		return nil, rte(d.pos, "undeclared variable %s", d.name)
	}
	return fr.newCell(int32(d.sslot), d.zero), nil
}

// declare runs one array declaration of the prologue: bounds from
// registers, then a view of the caller's binding (dummies) or a fresh
// allocation. Only a dummy can view caller backing — for any other name a
// filled slot means an earlier declaration of the same name, which the
// fresh allocation replaces (the tree-walker's map overwrite).
func (bp *bprog) declare(fr *frame, regs []interp.Value, d *declDesc) error {
	bounds := make([]interp.DimBound, len(d.hi))
	for i := range bounds {
		lo := int64(1)
		if d.lo[i] >= 0 {
			lo = regs[d.lo[i]].AsInt()
		}
		if d.hi[i] < 0 {
			bounds[i] = interp.DimBound{Lo: lo, Assumed: true}
			continue
		}
		bounds[i] = interp.DimBound{Lo: lo, Hi: regs[d.hi[i]].AsInt()}
	}
	var a *interp.Array
	var err error
	if d.dummy && fr.bind[d.aslot] != nil {
		a, err = interp.View(d.name, fr.bind[d.aslot], 0, bounds)
	} else {
		a, err = interp.NewArray(d.name, d.kind, bounds)
	}
	if err != nil {
		return rte(d.pos, "%v", err)
	}
	fr.arr[d.aslot] = a
	return nil
}

// enter finishes frame setup: dummy arrays the unit never declares are
// used as the caller bound them, and eligible implicit scalars get their
// cells so the body can address them directly.
func (bp *bprog) enter(fr *frame) {
	for _, a := range bp.bindRest {
		if fr.arr[a] == nil {
			fr.arr[a] = fr.bind[a]
		}
	}
	for _, pe := range bp.prec {
		if fr.scal[pe.sslot] == nil {
			fr.newCell(pe.sslot, pe.zero)
		}
	}
}

// bindArg binds one actual argument into the pending callee frame with
// Fortran reference semantics (the walker's callUser).
func (x *rctx) bindArg(fr *frame, regs []interp.Value, bp *bprog, d *argDesc) error {
	nfr := x.pend
	switch {
	case d.name >= 0:
		nd := &bp.names[d.name]
		if nd.aslot >= 0 {
			if a := fr.arr[nd.aslot]; a != nil {
				nfr.bind[d.arr] = a
				return nil
			}
		}
		p, err := bp.cell(fr, nd)
		if err != nil {
			return err
		}
		nfr.scal[d.scal] = p // alias: writes are visible to the caller
		return nil
	case d.ref >= 0:
		rd := &bp.refs[d.ref]
		if a := fr.arr[rd.aslot]; a != nil {
			off, err := a.Linear(ints(rd.args, regs))
			if err != nil {
				return err
			}
			// Sequence association: the callee's dummy views the caller's
			// storage from this element on.
			view, err := interp.View(d.dummy, a, off, []interp.DimBound{{Lo: 1, Assumed: true}})
			if err != nil {
				return rte(rd.pos, "%v", err)
			}
			nfr.bind[d.arr] = view
			return nil
		}
		v, err := x.intrinsic(rd, regs)
		if err != nil {
			return err
		}
		nfr.newCell(d.scal, v)
		return nil
	}
	nfr.newCell(d.scal, regs[d.val]) // a temporary in the dummy's own register
	return nil
}
