package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"shield5g"
	"shield5g/internal/costmodel"
	"shield5g/internal/simclock"
)

// TestRun drives run the way the shell does: a rejected flag exits 2 with
// the reason on stderr before anything is deployed, and the default demo
// registers one UE, prints the registration's hops (a crossing's with its
// boundary events: none in a container, VM exits only in a confidential
// VM), opens a PDU session, prints what its procedures booked and exits 0.
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
		{"-isolation container", 0, "demo session setup (registration + PDU session): 67.88ms virtual (paper: 62.38ms)", ""},
		{"-isolation container", 0, "demo virtual time: deregistration 12.88ms, provisioning 1.15ms, slice maintenance 1.21s", ""},
		{"-isolation container", 0, "\n              cross eudm-paka                                 1350.6  EENTER 0  EEXIT 0  OCALL 0  AEX 0  VM exit 0\n", ""},
		{"-isolation sgx", 0, "\n              cross eudm-paka                                21531.0  EENTER 151  EEXIT 151  OCALL 151  AEX 7  VM exit 0\n", ""},
		{"-isolation sev", 0, "\n              cross eudm-paka                                 1356.9  EENTER 0  EEXIT 0  OCALL 0  AEX 0  VM exit 4\n", ""},
		{"-isolation container", 0, "demo registration: 21 hops, 54.273ms at top level + 56µs outside any hop = 54.329ms booked", ""},
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

// TestPrintHopsRefusesAnIncompleteRecord: the hop table exits 1 on a
// record that overflowed, and on top-level hops that charged more than the
// registration booked.
func TestPrintHopsRefusesAnIncompleteRecord(t *testing.T) {
	m := costmodel.Default().Duration
	var full simclock.Hops
	ctx := simclock.NewCall(context.Background())
	ctx.Hops = &full
	for range simclock.HopCapacity + 1 {
		simclock.EnterHop(ctx, simclock.Radio, "", 0).Leave()
	}
	var charged simclock.Hops
	recording := simclock.NewCall(context.Background())
	recording.Hops = &charged
	pinned, acct, own := simclock.Pin(recording)
	defer own.Release()
	hop := simclock.EnterHop(pinned, simclock.Post, "/a", 0)
	acct.Charge(10_000) // 4.166 µs at 2.4 GHz
	hop.Leave()
	for _, tc := range []struct {
		name   string
		hops   *simclock.Hops
		booked time.Duration
		stderr string
	}{
		{"overflow", &full, 0, "1 hops past capacity"},
		{"top level over the total", &charged, time.Nanosecond, "top-level hops charged 4.166µs of 1ns booked"},
	} {
		var stdout, stderr bytes.Buffer
		if code := printHops(&stdout, &stderr, m, tc.hops, tc.booked); code != 1 || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: exit %d, stderr %q; want 1 and %q", tc.name, code, stderr.String(), tc.stderr)
		}
	}
}

// TestUnbookedCountsBothEnvs: the exit rule reads a cycle charged to no
// account on the slice's env and, under SGX, on the platform's; a freshly
// deployed slice has none.
func TestUnbookedCountsBothEnvs(t *testing.T) {
	tb, err := shield5g.NewTestbed(context.Background(), shield5g.SliceConfig{Isolation: shield5g.SGX, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if n := tb.Slice.Unbooked(); n != 0 {
		t.Fatalf("a deployed slice counts %d unbooked cycles, want 0", n)
	}
	tb.Slice.Env.Charge(context.Background(), 5)
	tb.Slice.Platform.Env().Charge(context.Background(), 7)
	if n := tb.Slice.Unbooked(); n != 12 {
		t.Fatalf("unbooked = %d after charging 5 and 7 to no account, want 12", n)
	}
}
