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
	if args, ok := os.LookupEnv("EVALRUNNER_ARGS"); ok {
		os.Args = append([]string{"evalrunner"}, strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

// TestUnknownEngineExit2: a bad -engine name is a usage error (exit 2),
// diagnosed before any sweeping starts.
func TestUnknownEngineExit2(t *testing.T) {
	cases := []struct {
		name    string
		args    string
		wantOut string
	}{
		{name: "unknown engine", args: "-engine jit", wantOut: "unknown engine"},
		{name: "compile engine", args: "-engine compile", wantOut: "unknown engine"},
		{name: "unknown tune check engine", args: "-tune -tune-check-engine jit", wantOut: "unknown engine"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := osexec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "EVALRUNNER_ARGS="+c.args)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*osexec.ExitError)
			if !ok {
				t.Fatalf("evalrunner %s: err = %v (output %q), want exit error", c.args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("evalrunner %s: exit %d (output %q), want 2", c.args, code, out)
			}
			if !strings.Contains(string(out), c.wantOut) {
				t.Fatalf("evalrunner %s: output %q does not mention %q", c.args, out, c.wantOut)
			}
		})
	}
}
