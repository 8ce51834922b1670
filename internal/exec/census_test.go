package exec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// censusPrograms returns every program the census lowers: each runnable
// golden fixture, each corpus original and its fixed-plan variant.
func censusPrograms(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.f90"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden fixtures found: %v", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), "program ") {
			srcs[filepath.Base(path)] = string(b)
		}
	}
	for _, sc := range workload.GenerateScenarios(workload.GenOptions{}) {
		prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: analyze: %v", sc.Name, err)
		}
		out, _, err := core.Apply(prog, core.Options{K: sc.K}.Plan())
		if err != nil {
			t.Fatalf("%s: apply: %v", sc.Name, err)
		}
		srcs[sc.Name] = sc.Source
		srcs[sc.Name+"/fixed"] = out
	}
	return srcs
}

// registerWrites returns the registers an instruction writes as its
// result. Stores into scalar cells (bStoreS, bStoreN, bNewS, the DO
// variable update of bForIter) go through slot pointers and are not
// register results. ok is false for an opcode the census does not know.
func registerWrites(bp *bprog, ins bins) (regs []int32, ok bool) {
	switch ins.op {
	case bMove, bLoadS, bLoadN, bNegI, bNeg, bNot, bNotChk,
		bAddI, bSubI, bMulI, bDivI, bPowI, bModI, bMinI, bMaxI,
		bEqI, bNeI, bLtI, bLeI, bGtI, bGeI, bArith, bCmp,
		bLoadA, bLoadU, bLoadD, bLinear, bIntr, bMod2, bWtime,
		bRankInfo, bCType, bIsend, bIrecv:
		return []int32{ins.a}, true
	case bForPrep:
		fd := &bp.fors[ins.a]
		return []int32{fd.vReg, fd.tripsReg, fd.stepValReg}, true
	case bForIter:
		return []int32{bp.fors[ins.a].tripsReg}, true
	case bForNext:
		return []int32{bp.fors[ins.a].vReg}, true
	case bCharge, bJmp, bJF, bJT, bJFChk, bBoolChk, bErr, bRet, bStop,
		bExitS, bCycleS, bSetConst, bJCell, bNewS, bNewA, bBody,
		bStoreS, bStoreN, bCellN, bStoreA, bStoreU, bArrChk, bPrint,
		bCallNew, bArg, bCall, bBarrier, bSend, bRecv, bWait, bWaitall,
		bAlltoall:
		return nil, true
	}
	return nil, false
}

// TestRegisterCellCensus lowers every golden fixture, every corpus
// original and every fixed-plan variant, and checks the register-cell
// layout statically: every bLoadS loads a dummy scalar slot (a local is
// read in place from its cell register), and no instruction writes a cell
// register as its result (cells change only through stores).
func TestRegisterCellCensus(t *testing.T) {
	var units, instrs, loads int
	for name, src := range censusPrograms(t) {
		p, err := CompileSource(src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		p.Bytecode()
		for _, u := range p.units {
			units++
			dummy := map[int32]bool{}
			for _, s := range u.paramScal {
				dummy[int32(s)] = true
			}
			for pc, ins := range u.bc.code {
				instrs++
				if ins.op == bLoadS {
					loads++
					if !dummy[ins.b] {
						t.Errorf("%s/%s pc %d: bLoadS of scalar slot %d, which is not a dummy", name, u.name, pc, ins.b)
					}
				}
				regs, ok := registerWrites(u.bc, ins)
				if !ok {
					t.Fatalf("%s/%s pc %d: opcode %d missing from the census", name, u.name, pc, ins.op)
				}
				for _, r := range regs {
					if r < int32(u.nscal) {
						t.Errorf("%s/%s pc %d: opcode %d writes cell register %d", name, u.name, pc, ins.op, r)
					}
				}
			}
		}
	}
	t.Logf("%d units, %d instructions, %d bLoadS (dummies only)", units, instrs, loads)
}
