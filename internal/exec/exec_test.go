package exec_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// fastEngines are the compiled engines proven against the walk oracle.
var fastEngines = []exec.Engine{exec.EngineBytecode}

// requireBitIdentical asserts two results agree on everything the
// simulation observes: printed output, every final array (both ways),
// virtual completion time, per-rank compute/blocked split, and the message
// and byte counters.
func requireBitIdentical(t *testing.T, label string, walk, fast *interp.Result) {
	t.Helper()
	if same, why := interp.SameOutput(walk, fast); !same {
		t.Fatalf("%s: oracle vs fast output/arrays: %s", label, why)
	}
	if same, why := interp.SameOutput(fast, walk); !same {
		t.Fatalf("%s: fast vs oracle output/arrays: %s", label, why)
	}
	for r := range walk.Arrays {
		if len(walk.Arrays[r]) != len(fast.Arrays[r]) {
			t.Fatalf("%s: rank %d holds %d arrays under walk, %d under the fast tier",
				label, r, len(walk.Arrays[r]), len(fast.Arrays[r]))
		}
	}
	if walk.Elapsed() != fast.Elapsed() {
		t.Fatalf("%s: elapsed %v (walk) vs %v (fast)", label, walk.Elapsed(), fast.Elapsed())
	}
	if walk.Stats.Messages != fast.Stats.Messages || walk.Stats.Bytes != fast.Stats.Bytes {
		t.Fatalf("%s: traffic %d msgs/%d B (walk) vs %d msgs/%d B (fast)", label,
			walk.Stats.Messages, walk.Stats.Bytes, fast.Stats.Messages, fast.Stats.Bytes)
	}
	for r := range walk.Stats.PerRank {
		w, c := walk.Stats.PerRank[r], fast.Stats.PerRank[r]
		if w != c {
			t.Fatalf("%s: rank %d stats %+v (walk) vs %+v (fast)", label, r, w, c)
		}
	}
}

// runAll executes src under the walk oracle and every fast tier on one
// machine, asserting each fast tier is bit-identical to the oracle.
func runAll(t *testing.T, label, src string, np int, m plan.Machine) {
	t.Helper()
	walk, err := exec.EngineWalk.Run(src, np, m.Costs, m.Profile)
	if err != nil {
		t.Fatalf("%s: walk: %v", label, err)
	}
	for _, eng := range fastEngines {
		fast, err := eng.Run(src, np, m.Costs, m.Profile)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, eng, err)
		}
		requireBitIdentical(t, fmt.Sprintf("%s/%s", label, eng), walk, fast)
	}
}

// runAllErr executes a failing src under the walk oracle and every fast
// tier, requiring each tier to fail with the oracle's exact error string.
func runAllErr(t *testing.T, label, src string, np int, m plan.Machine) {
	t.Helper()
	_, werr := exec.EngineWalk.Run(src, np, m.Costs, m.Profile)
	if werr == nil {
		t.Fatalf("%s: walk: no error", label)
	}
	for _, eng := range fastEngines {
		_, err := eng.Run(src, np, m.Costs, m.Profile)
		if err == nil || err.Error() != werr.Error() {
			t.Fatalf("%s: %s error %v, walk error %v", label, eng, err, werr)
		}
	}
}

var npRe = regexp.MustCompile(`np\s*=\s*(\d+)`)

// TestGoldenFixturesBitIdentical runs every runnable golden fixture under
// both engines on every built-in machine and requires identical results.
func TestGoldenFixturesBitIdentical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.f90"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden fixtures found: %v", err)
	}
	ran := 0
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		if !strings.Contains(src, "program ") {
			continue // code fragments (figure4) are not runnable
		}
		m := npRe.FindStringSubmatch(src)
		if m == nil {
			continue
		}
		np, _ := strconv.Atoi(m[1])
		for _, machine := range plan.Builtin() {
			label := fmt.Sprintf("%s/%s", filepath.Base(path), machine.Name)
			runAll(t, label, src, np, machine)
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no runnable fixtures exercised")
	}
}

// TestCorpusBitIdentical runs the full generated corpus — original and
// fixed-plan transformed variants — under both engines on the paper pair
// and requires bit-identical results everywhere. This is the differential
// oracle of the compiled engine: any semantic or cost-model divergence
// from the tree-walker fails here.
func TestCorpusBitIdentical(t *testing.T) {
	scenarios := workload.GenerateScenarios(workload.GenOptions{})
	if len(scenarios) < 40 {
		t.Fatalf("corpus has %d scenarios, want >= 40", len(scenarios))
	}
	if testing.Short() {
		// The round-robin interleave keeps any prefix family-diverse.
		scenarios = scenarios[:12]
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := core.Analyze(sc.Source, core.AnalyzeOptions{})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			transformed, rep, err := core.Apply(prog, core.Options{K: sc.K}.Plan())
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			if rep.TransformedCount() == 0 {
				t.Fatalf("transform did not fire: %s", rep.FirstRejection())
			}
			for _, m := range plan.PaperPair() {
				if sc.Costs != nil {
					m.Costs = *sc.Costs
				}
				for vi, src := range []string{sc.Source, transformed} {
					label := fmt.Sprintf("%s/%s/variant%d", sc.Name, m.Name, vi)
					runAll(t, label, src, sc.NP, m)
				}
			}
		})
	}
}

// TestSubroutineAndImplicitSemantics exercises the engine's trickiest
// lowering paths: user subroutines with scalar aliasing and
// sequence-associated array views, implicit typing, named constants,
// intrinsics, EXIT/CYCLE, and a loop whose variable survives the loop; a
// DO variable that is an undeclared dummy, EXIT/CYCLE inside a subroutine
// loop and escaping a callee into the caller's loop, MPI_Waitall over
// requests posted inside a subroutine, a dummy array read by frame setup
// before its declaration (an implicit scalar, like the walker's binding
// map), implicit scalars read but never assigned, and PRINT of mixed
// kinds; and runtime errors raised inside subroutines, whose strings must
// match the oracle's.
func TestSubroutineAndImplicitSemantics(t *testing.T) {
	src := `
program torture
  include 'mpif.h'
  integer, parameter :: n = 6
  integer, parameter :: m = n * 2
  integer a(1:n, 1:2)
  integer ierr, me, i, total, cnt
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  do i = 1, n
    a(i, 1) = i * 3
    a(i, 2) = i + me
  enddo
  total = 0
  cnt = n
  call accum(a(1, 2), cnt, total)
  call bump(total)
  do i = 1, m
    if (i > 7) then
      exit
    endif
    if (mod(i, 2) == 0) then
      cycle
    endif
    total = total + i
  enddo
  xkeep = 2.5
  print *, 'total', total, i, xkeep, max(total, 40), sqrt(4.0)
  call mpi_finalize(ierr)
end program torture

subroutine accum(v, k, acc)
  integer k, acc
  integer v(1:k)
  integer j
  do j = 1, k
    acc = acc + v(j)
  enddo
end subroutine accum

subroutine bump(x)
  integer x
  x = x + 100
end subroutine bump
`
	for _, m := range plan.Builtin() {
		runAll(t, "torture/"+m.Name, src, 3, m)
	}

	subpaths := `
program subpaths
  include 'mpif.h'
  integer reqs(1:4)
  integer sbuf(1:8), rbuf(1:8)
  integer ierr, me, other, i, kk, total, nreq
  logical flag
  call mpi_init(ierr)
  call mpi_comm_rank(mpi_comm_world, me, ierr)
  other = 1 - me
  do i = 1, 8
    sbuf(i) = me * 100 + i
    rbuf(i) = -1
  enddo
  nreq = 0
  call post(sbuf, rbuf, 4, other, reqs, nreq)
  call mpi_waitall(nreq, reqs, mpi_statuses_ignore, ierr)
  call peek(rbuf)
  kk = 0
  total = 0
  call loopy(kk, 5, total)
  call loopy(sbuf, 2, total)
  do i = 1, 6
    call quit(i, total)
    total = total + 1000
  enddo
  flag = total > 10
  print *, 'mixed', total, kk, i, 2.5, flag, 'str', rbuf(1), rbuf(2), rbuf(4), reqs(1), never, xnever
  call mpi_finalize(ierr)
end program subpaths

subroutine post(s, r, n, peer, reqs, nreq)
  integer n, peer, nreq
  integer s(*), r(*), reqs(*)
  nreq = nreq + 1
  call mpi_isend(s(1), n, mpi_integer, peer, 7, mpi_comm_world, reqs(nreq), ierr)
  nreq = nreq + 1
  call mpi_irecv(r(1), n, mpi_integer, peer, 7, mpi_comm_world, reqs(nreq), ierr)
end subroutine post

subroutine peek(v)
  integer, parameter :: q = v + 1
  integer v(1:8)
  v(2) = q + v(1)
end subroutine peek

subroutine loopy(k, n, acc)
  integer n, acc
  do k = 1, n * 3
    if (k == 2) then
      cycle
    endif
    if (k > n) then
      exit
    endif
    acc = acc + k
  enddo
end subroutine loopy

subroutine quit(i, acc)
  integer i, acc
  acc = acc + i
  if (i == 2) then
    cycle
  endif
  if (i == 4) then
    exit
  endif
end subroutine quit
`
	for _, m := range plan.Builtin() {
		runAll(t, "subpaths/"+m.Name, subpaths, 2, m)
	}

	failing := map[string]string{
		"divide": `
program suberr
  integer ierr, z
  call mpi_init(ierr)
  z = 0
  call divide(z)
  call mpi_finalize(ierr)
end program suberr

subroutine divide(d)
  integer d, q
  q = 10 / d
end subroutine divide
`,
		"declared-dummy-oob": `
program oob
  integer a(1:4)
  integer ierr
  call mpi_init(ierr)
  call poke(a, 4)
  call mpi_finalize(ierr)
end program oob

subroutine poke(v, n)
  integer n
  integer v(1:n)
  v(n + 1) = 1
end subroutine poke
`,
		"undeclared-dummy-oob": `
program oob
  integer a(1:4)
  integer ierr
  call mpi_init(ierr)
  call peek(a)
  call mpi_finalize(ierr)
end program oob

subroutine peek(v)
  x = v(9)
end subroutine peek
`,
	}
	m := plan.MPICHGM2005()
	for name, src := range failing {
		runAllErr(t, name, src, 2, m)
	}
}

// TestDuplicateArrayDeclaration: a unit declaring the same array name
// twice must behave like the tree-walker (the second allocation replaces
// the first) — a dummy's caller backing must not be confused with an
// earlier declaration's allocation.
func TestDuplicateArrayDeclaration(t *testing.T) {
	src := `
program dupdecl
  include 'mpif.h'
  integer a(1:2)
  integer a(1:10)
  integer ierr
  call mpi_init(ierr)
  a(9) = 7
  print *, 'a9', a(9)
  call mpi_finalize(ierr)
end program dupdecl
`
	m := plan.MPICHGM2005()
	runAll(t, "dupdecl", src, 2, m)
}

// TestForwardConstantReference: a parameter initializer referencing a
// later parameter must fall back to the implicit-typing zero exactly like
// the tree-walker (the constant is only visible once pass 1 sets it). The
// fallback creates a scalar cell, so a later store to the constant's name
// succeeds while reads still see the constant; likewise an array bound
// reading a scalar before its declaration creates an implicit real cell
// that the integer declaration then keeps.
func TestForwardConstantReference(t *testing.T) {
	src := `
program fwdconst
  include 'mpif.h'
  integer, parameter :: k = 3 + b
  integer, parameter :: b = 5
  real w(1:xx + 2)
  integer xx
  integer ierr
  call mpi_init(ierr)
  b = 7
  xx = 7
  w(2) = xx + 1
  print *, 'k', k, 'b', b, 'xx', xx + 1, -xx, w(2)
  call mpi_finalize(ierr)
end program fwdconst
`
	m := plan.MPICHGM2005()
	runAll(t, "fwdconst", src, 2, m)
}
