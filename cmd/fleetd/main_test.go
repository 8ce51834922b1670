package main

import (
	"os"
	osexec "os/exec"
	"strings"
	"testing"
)

// TestMain re-invokes main when the harness env var is set, so exit-code
// tests can spawn the real command from the test binary without a build.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FLEETD_ARGS"); ok {
		os.Args = append([]string{"fleetd"}, strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

// TestUsageErrorsExit2: flag misuse — above all an unknown worker -engine
// name — must exit 2 (usage) before the process touches the network.
func TestUsageErrorsExit2(t *testing.T) {
	cases := []struct {
		name    string
		args    string
		wantOut string
	}{
		{name: "unknown engine", args: "-worker -coord http://127.0.0.1:1 -engine jit", wantOut: "unknown engine"},
		{name: "misspelled tier", args: "-worker -coord http://127.0.0.1:1 -engine byte-code", wantOut: "unknown engine"},
		{name: "compile engine", args: "-worker -coord http://127.0.0.1:1 -engine compile", wantOut: "unknown engine"},
		{name: "engine without worker", args: "-engine walk", wantOut: "worker-mode flag"},
		{name: "worker without coord", args: "-worker -engine bytecode", wantOut: "-coord"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := osexec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "FLEETD_ARGS="+c.args)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*osexec.ExitError)
			if !ok {
				t.Fatalf("fleetd %s: err = %v (output %q), want exit error", c.args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("fleetd %s: exit %d (output %q), want 2", c.args, code, out)
			}
			if !strings.Contains(string(out), c.wantOut) {
				t.Fatalf("fleetd %s: output %q does not mention %q", c.args, out, c.wantOut)
			}
		})
	}
}
