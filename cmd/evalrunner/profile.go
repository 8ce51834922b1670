package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles creates the -cpuprofile/-memprofile files before any
// work, so an unwritable path is a usage error, and starts the CPU
// profile. The returned stop finishes both; the memory profile is the
// allocs profile (every allocation since the process started), written
// when the run ends.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %v", err)
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			if cpu != nil {
				cpu.Close()
			}
			return nil, fmt.Errorf("-memprofile: %v", err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("-cpuprofile: %v", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			closeProfile(cpu, "-cpuprofile")
		}
		if mem != nil {
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
				fmt.Fprintln(os.Stderr, "evalrunner: -memprofile:", err)
			}
			closeProfile(mem, "-memprofile")
		}
	}, nil
}

// closeProfile closes a written profile, reporting a failed write-back.
func closeProfile(f *os.File, flag string) {
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "evalrunner: %s: %v\n", flag, err)
	}
}
