package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"shield5g"
)

// TestRunRejectsAndAccepts drives run the way the shell does. Every
// rejected combination exits 2 with the reason on stderr before anything
// is deployed (nothing on stdout); a flag a mode cannot honour is
// rejected, not ignored.
func TestRunRejectsAndAccepts(t *testing.T) {
	for _, tc := range []struct {
		args   string
		exit   int
		stdout string // a fragment stdout must carry ("": stdout must be empty)
		stderr string // a fragment stderr must carry ("": stderr must be empty)
	}{
		{"-storm 2 -parallel 4", 2, "", "-parallel: not used by a -storm run"},
		{"-storm 2 -batch 8", 2, "", "-batch: not used by a -storm run"},
		{"-storm 2 -retries 3", 2, "", "-retries: not used by a -storm run"},
		{"-storm 2 -switchless", 2, "", "-switchless: not used by a -storm run"},
		{"-n 24 -storm 2 -batch 8 -parallel 4 -switchless -retries 3", 2, "", "-batch -parallel -retries -switchless: not used"},
		{"-storm 2 -parallel 1", 2, "", "-parallel: not used"}, // set, even to its default
		{"-limiter", 2, "", "-limiter needs a -storm run"},
		{"-storm -1", 2, "", "-storm factor must be >= 0"},
		{"-chaos 1.5", 2, "", "outside [0, 1]"},
		{"-batch -1", 2, "", "-batch and -avpool must be >= 0"},
		{"-avpool -1", 2, "", "-batch and -avpool must be >= 0"},
		{"-shards 0", 2, "", "-shards must be >= 1"},
		{"-shards 2 -shardsize 2", 2, "", "flag provided but not defined: -shardsize"},
		{"-switchless -isolation container", 2, "", "-switchless needs -isolation sgx"},
		{"-isolation tdx", 2, "", "tdx"},
		{"-isolation monolithic", 2, "", `unknown isolation "monolithic" (want container, sgx or sev)`},
		{"-nosuchflag", 2, "", "nosuchflag"},

		{"-n 12 -storm 2 -limiter -avpool 4 -seed 7", 0, "storm: 12 arrivals at 2x overload, limiter true", ""},
		{"-n 8 -parallel 2 -batch 4 -avpool 4 -retries 2 -seed 3", 0, "registered 8/8 UEs (0 failed) with 2 worker(s)", ""},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(strings.Fields(tc.args), &stdout, &stderr); got != tc.exit {
			t.Errorf("gnbsim %s: exit %d, want %d (stderr: %s)", tc.args, got, tc.exit, stderr.String())
		}
		for _, out := range []struct {
			name, got, want string
		}{{"stdout", stdout.String(), tc.stdout}, {"stderr", stderr.String(), tc.stderr}} {
			if (out.want == "") != (out.got == "") || !strings.Contains(out.got, out.want) {
				t.Errorf("gnbsim %s: %s = %q, want it to carry %q", tc.args, out.name, out.got, out.want)
			}
		}
	}
}

// TestStormAdmissionCountsTheFleet: the storm summary's admission line is
// the fleet's drops — the sum over every replica's AMF buckets — not the
// share of the one replica that happens to be shard 0.
func TestStormAdmissionCountsTheFleet(t *testing.T) {
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{
		Isolation: shield5g.SGX, Seed: 7, Replicas: 4, Overload: shield5g.LimiterProfile(),
	})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()
	var stdout, stderr bytes.Buffer
	if code := runStorm(ctx, tb, 400, 10, true, 7, &stdout, &stderr); code != 0 {
		t.Fatalf("runStorm exit %d: %s", code, stderr.String())
	}
	var fleet uint64
	for _, shard := range tb.Slice.Shards {
		fleet += shard.Admission.Stats().TotalDropped()
	}
	if first := tb.Slice.Shards[0].Admission.Stats().TotalDropped(); first == fleet {
		t.Fatalf("shard 0 dropped all %d; the storm cannot tell the fleet from shard 0", fleet)
	}
	if want := fmt.Sprintf("admission: %d dropped", fleet); !strings.Contains(stdout.String(), want) {
		t.Errorf("storm summary:\n%s\nwant it to carry %q", stdout.String(), want)
	}
}
