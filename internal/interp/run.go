package interp

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ftn"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// Program is a loaded, runnable program.
type Program struct {
	File  *ftn.File
	Costs CostModel
}

// Load parses src into a runnable program with default costs.
func Load(src string) (*Program, error) {
	f, err := ftn.Parse(src)
	if err != nil {
		return nil, err
	}
	return LoadFile(f)
}

// LoadFile wraps an already-parsed file.
func LoadFile(f *ftn.File) (*Program, error) {
	if f.Program() == nil {
		return nil, fmt.Errorf("interp: no program unit")
	}
	return &Program{File: f, Costs: DefaultCosts()}, nil
}

// Result is the outcome of one simulated run.
type Result struct {
	Stats  *mpi.RunStats
	Output [][]string               // per-rank PRINT lines
	Arrays []map[string]interface{} // per-rank final arrays ([]int64 / []float64)
	Errors []error                  // per-rank runtime errors (nil entries when clean)
}

// Elapsed returns the virtual completion time.
func (r *Result) Elapsed() netsim.Time { return r.Stats.End }

// AvgRankTimes returns the average per-rank compute and blocked (waiting)
// times — the split the paper's Figure 1 discussion is about: pre-pushing
// converts blocked time into overlapped compute.
func (r *Result) AvgRankTimes() (compute, blocked netsim.Time) {
	if r.Stats == nil || len(r.Stats.PerRank) == 0 {
		return 0, 0
	}
	for _, rs := range r.Stats.PerRank {
		compute += rs.Compute
		blocked += rs.Blocked
	}
	n := netsim.Time(len(r.Stats.PerRank))
	return compute / n, blocked / n
}

// OutputLines flattens per-rank output with rank prefixes, sorted by rank
// (deterministic across schedulers).
func (r *Result) OutputLines() []string {
	var out []string
	for rank, lines := range r.Output {
		for _, l := range lines {
			out = append(out, fmt.Sprintf("[%d] %s", rank, l))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Run executes the program on np simulated ranks over the profile.
func (p *Program) Run(np int, prof netsim.Profile) (*Result, error) {
	res := &Result{
		Output: make([][]string, np),
		Arrays: make([]map[string]interface{}, np),
		Errors: make([]error, np),
	}
	var mu sync.Mutex
	stats, err := mpi.Run(np, prof, func(r *mpi.Rank) {
		m := &machine{prog: p, rank: r, costs: p.Costs}
		runErr := m.runMain()
		mu.Lock()
		res.Output[r.Me()] = m.out
		res.Errors[r.Me()] = runErr
		if m.main != nil {
			snap := map[string]interface{}{}
			inFlight := mpi.RecvInFlight(m.reqs)
			for name, a := range m.main.arr {
				snap[name] = a.Snapshot(inFlight)
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

// runMain executes the main program unit on this machine's rank.
func (m *machine) runMain() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("interp panic: %v", r)
		}
	}()
	unit := m.prog.File.Program()
	fr, err := m.newFrame(unit, nil, nil)
	if err != nil {
		return err
	}
	m.main = fr
	err = m.execStmts(fr, unit.Body)
	if err == errStop || err == errReturn {
		err = nil
	}
	return err
}

// SameOutput reports whether two results printed identical lines and hold
// identical final arrays on every rank; used by the §4-style correctness
// evaluation (transformed output must be identical to the original).
func SameOutput(a, b *Result) (bool, string) {
	if same, why := Sameprinted(a, b); !same {
		return false, why
	}
	for r := range a.Arrays {
		for name, av := range a.Arrays[r] {
			bv, ok := b.Arrays[r][name]
			if !ok {
				continue // arrays added by the transformation (cc_reqs…)
			}
			if diff := diffData(av, bv); diff != "" {
				return false, fmt.Sprintf("rank %d array %s: %s", r, name, diff)
			}
		}
	}
	return true, ""
}

// SameObservable compares printed output plus only the named arrays. The
// indirect transformation (§3.4) makes the send array dead — it is never
// written again — so equivalence there is judged on the program's output
// and its receive array.
func SameObservable(a, b *Result, arrays ...string) (bool, string) {
	if same, why := SameprintedAndArrays(a, b, arrays); !same {
		return false, why
	}
	return true, ""
}

// Sameprinted compares only the printed output of two results.
func Sameprinted(a, b *Result) (bool, string) {
	if len(a.Output) != len(b.Output) {
		return false, "different rank counts"
	}
	for r := range a.Output {
		if len(a.Output[r]) != len(b.Output[r]) {
			return false, fmt.Sprintf("rank %d: %d vs %d output lines", r, len(a.Output[r]), len(b.Output[r]))
		}
		for i := range a.Output[r] {
			if a.Output[r][i] != b.Output[r][i] {
				return false, fmt.Sprintf("rank %d line %d: %q vs %q", r, i, a.Output[r][i], b.Output[r][i])
			}
		}
	}
	return true, ""
}

// SameprintedAndArrays compares output plus the named arrays on each rank.
func SameprintedAndArrays(a, b *Result, arrays []string) (bool, string) {
	if same, why := Sameprinted(a, b); !same {
		return false, why
	}
	for r := range a.Arrays {
		for _, name := range arrays {
			av, okA := a.Arrays[r][name]
			bv, okB := b.Arrays[r][name]
			if !okA || !okB {
				return false, fmt.Sprintf("rank %d: array %s missing", r, name)
			}
			if diff := diffData(av, bv); diff != "" {
				return false, fmt.Sprintf("rank %d array %s: %s", r, name, diff)
			}
		}
	}
	return true, ""
}

func diffData(a, b interface{}) string {
	switch av := a.(type) {
	case []int64:
		bv, ok := b.([]int64)
		if !ok {
			return "kind mismatch"
		}
		if len(av) != len(bv) {
			return fmt.Sprintf("len %d vs %d", len(av), len(bv))
		}
		for i := range av {
			if av[i] != bv[i] {
				return fmt.Sprintf("element %d: %d vs %d", i, av[i], bv[i])
			}
		}
	case []float64:
		bv, ok := b.([]float64)
		if !ok {
			return "kind mismatch"
		}
		if len(av) != len(bv) {
			return fmt.Sprintf("len %d vs %d", len(av), len(bv))
		}
		for i := range av {
			if av[i] != bv[i] {
				return fmt.Sprintf("element %d: %g vs %g", i, av[i], bv[i])
			}
		}
	}
	return ""
}
