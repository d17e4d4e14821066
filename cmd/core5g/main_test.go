package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives run the way the shell does: a rejected flag exits 2 with
// the reason on stderr before anything is deployed, and the default demo
// registers one UE, opens a PDU session and exits 0.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args   string
		exit   int
		stdout string // a fragment stdout must carry ("": stdout must be empty)
		stderr string // a fragment stderr must carry ("": stderr must be empty)
	}{
		{"-isolation monolithic", 2, "", `unknown isolation "monolithic" (want container, sgx or sev)`},
		{"-nosuchflag", 2, "", "flag provided but not defined: -nosuchflag"},
		{"-isolation container", 0, "demo UE deregistered: 0 AMF UE contexts, 0 SMF and 0 UPF sessions left", ""},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(strings.Fields(tc.args), &stdout, &stderr); got != tc.exit {
			t.Errorf("core5g %s: exit %d, want %d (stderr: %s)", tc.args, got, tc.exit, stderr.String())
		}
		for _, out := range []struct {
			name, got, want string
		}{{"stdout", stdout.String(), tc.stdout}, {"stderr", stderr.String(), tc.stderr}} {
			if (out.want == "") != (out.got == "") || !strings.Contains(out.got, out.want) {
				t.Errorf("core5g %s: %s = %q, want it to carry %q", tc.args, out.name, out.got, out.want)
			}
		}
	}
}
