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
	if args, ok := os.LookupEnv("COMPUNIFORMER_ARGS"); ok {
		os.Args = append([]string{"compuniformer"}, strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

// TestUnknownEngineExit2: a bad -engine name is a usage error (exit 2),
// diagnosed before any transformation work happens.
func TestUnknownEngineExit2(t *testing.T) {
	cases := []struct {
		name string
		args string
	}{
		{name: "unknown engine", args: "-engine jit"},
		{name: "misspelled tier", args: "-engine byte-code"},
		{name: "compile engine", args: "-engine compile"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := osexec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "COMPUNIFORMER_ARGS="+c.args)
			cmd.Stdin = strings.NewReader("") // main reads stdin before flags are validated
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*osexec.ExitError)
			if !ok {
				t.Fatalf("compuniformer %s: err = %v (output %q), want exit error", c.args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("compuniformer %s: exit %d (output %q), want 2", c.args, code, out)
			}
			if !strings.Contains(string(out), "unknown engine") {
				t.Fatalf("compuniformer %s: output %q does not mention the unknown engine", c.args, out)
			}
		})
	}
}
