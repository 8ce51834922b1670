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
	if args, ok := os.LookupEnv("PLANSERVER_ARGS"); ok {
		os.Args = append([]string{"planserver"}, strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

// TestUsageErrorsExit2: flag misuse — above all an unknown -engine name —
// must exit 2 (usage) before the server binds a socket.
func TestUsageErrorsExit2(t *testing.T) {
	cases := []struct {
		name    string
		args    string
		wantOut string
	}{
		{name: "unknown engine", args: "-engine jit", wantOut: "unknown engine"},
		{name: "misspelled tier", args: "-engine byte-code", wantOut: "unknown engine"},
		{name: "compile engine", args: "-engine compile", wantOut: "unknown engine"},
		{name: "walk engine with cache dir", args: "-engine walk -cache-dir varcache", wantOut: "compiles nothing"},
		{name: "positional arguments", args: "extra", wantOut: "unexpected arguments"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := osexec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "PLANSERVER_ARGS="+c.args)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*osexec.ExitError)
			if !ok {
				t.Fatalf("planserver %s: err = %v (output %q), want exit error", c.args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("planserver %s: exit %d (output %q), want 2", c.args, code, out)
			}
			if !strings.Contains(string(out), c.wantOut) {
				t.Fatalf("planserver %s: output %q does not mention %q", c.args, out, c.wantOut)
			}
		})
	}
}
