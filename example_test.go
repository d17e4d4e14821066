package shield5g_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"shield5g"
)

// ExampleNewTestbed walks the library's primary flow: deploy an
// SGX-shielded slice, provision a subscriber, run the full 5G-AKA
// registration through the P-AKA modules, and move data.
func ExampleNewTestbed() {
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{
		Isolation: shield5g.SGX,
		MCC:       "001", MNC: "01",
		Seed: 1,
	})
	if err != nil {
		fmt.Println("deploy:", err)
		return
	}
	defer tb.Close()

	sub, err := tb.AddSubscriber(ctx, bytes.Repeat([]byte{0x2a}, 16), nil)
	if err != nil {
		fmt.Println("provision:", err)
		return
	}
	sess, err := tb.Register(ctx, sub)
	if err != nil {
		fmt.Println("register:", err)
		return
	}
	if err := sess.EstablishPDUSession(ctx, 1, "internet"); err != nil {
		fmt.Println("session:", err)
		return
	}
	echo, err := sess.SendData(ctx, []byte("hello"))
	if err != nil {
		fmt.Println("data:", err)
		return
	}
	fmt.Printf("registered %s, echo %q\n", sub.SUPI.String(), echo)
	// Output: registered imsi-001010000000002, echo "dn-echo:hello"
}

// ExampleLookupExperiment regenerates one of the paper's tables: look the
// row up, run it, render its result.
func ExampleLookupExperiment() {
	exp, err := shield5g.LookupExperiment("table1")
	if err != nil {
		fmt.Println("lookup:", err)
		return
	}
	result, err := exp.Run(context.Background(), shield5g.ExperimentConfig{Seed: 1, Iterations: 1})
	if err != nil {
		fmt.Println("experiment:", err)
		return
	}
	var buf bytes.Buffer
	result.Render(&buf)
	fmt.Println(strings.Contains(buf.String(), "Table I"))
	// Output: true
}
