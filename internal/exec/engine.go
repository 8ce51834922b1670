package exec

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/netsim"
)

// Engine selects how program variants are executed: the bytecode engine
// (drawing lowered programs from a variant store) or the tree-walking
// interpreter, which is retained as the differential oracle.
type Engine string

const (
	// EngineBytecode lowers each variant once (shared through the variant
	// store) into a register-based flat instruction stream (constant
	// folding, batched cost charges, bounds-check elimination) and
	// dispatches through a flat switch. The default.
	EngineBytecode Engine = "bytecode"
	// EngineWalk parses and tree-walks the AST for every run — the
	// historical path, kept as the bit-identical oracle.
	EngineWalk Engine = "walk"
)

// Default is the engine used when none is named.
const Default = EngineBytecode

// ParseEngine validates an engine name ("" selects the default). It is the
// one engine-name parser every command-line surface shares.
func ParseEngine(name string) (Engine, error) {
	switch Engine(name) {
	case "":
		return Default, nil
	case EngineBytecode, EngineWalk:
		return Engine(name), nil
	}
	return "", fmt.Errorf("exec: unknown engine %q (want %q or %q)", name, EngineBytecode, EngineWalk)
}

// Runner binds an engine to the variant store its compile path draws
// from — the injectable execution handle a session threads through the
// pipeline in place of the old process-global cache.
type Runner struct {
	Engine Engine
	// Store backs the bytecode engine; nil selects the process-default
	// store. The walk engine never touches it.
	Store VariantStore
}

// Run executes src on np simulated ranks under the profile, charging
// computation against costs. Both engines produce bit-identical results;
// EngineBytecode additionally shares compiled artifacts through the store.
func (r Runner) Run(src string, np int, costs interp.CostModel, prof netsim.Profile) (*interp.Result, error) {
	if r.Engine == EngineWalk {
		p, err := interp.Load(src)
		if err != nil {
			return nil, err
		}
		p.Costs = costs
		return p.Run(np, prof)
	}
	store := r.Store
	if store == nil {
		store = DefaultStore()
	}
	p, err := store.Get(src)
	if err != nil {
		return nil, err
	}
	return p.RunBytecode(np, prof, costs)
}

// Run executes through the process-default store — the zero-configuration
// path for callers with no session of their own.
func (e Engine) Run(src string, np int, costs interp.CostModel, prof netsim.Profile) (*interp.Result, error) {
	return Runner{Engine: e}.Run(src, np, costs, prof)
}
