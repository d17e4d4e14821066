// Package secretflow is a shieldlint fixture for the secret-taint
// analyzer: key material must not reach formatting, logging, JSON or
// SBI sinks outside the enclave-side packages.
package secretflow

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
)

type Subscriber struct {
	SUPI string
	K    []byte
	OPc  []byte
}

type Token struct {
	// shieldlint:secret derived session token joins the secret set
	Value []byte
}

type Report struct {
	SUPI  string
	Count int
}

func logs(s Subscriber, t Token) {
	fmt.Printf("subscriber %s key %x\n", s.SUPI, s.K) // want "secret field K flows into fmt.Printf"
	log.Println(s.OPc)                                // want "secret field OPc flows into log.Println"
	fmt.Println(t.Value)                              // want "secret field Value flows into fmt.Println"
	fmt.Println(len(s.K))                             // length of fixed-size key material is public: clean
	fmt.Println(s.SUPI)                               // clean
}

func marshal(s Subscriber, r Report) ([]byte, error) {
	if _, err := json.Marshal(r); err != nil { // clean: Report carries no secrets
		return nil, err
	}
	return json.Marshal(s) // want "secret-bearing type .*Subscriber flows into encoding/json.Marshal"
}

// logf is printf-shaped, so its variadic arguments end up formatted
// into logs; the analyzer treats it as a sink.
func logf(format string, args ...any) { _ = format; _ = args }

func wrapper(s Subscriber) {
	logf("key=%x", s.K) // want "secret field K flows into logf"
	logf("supi=%s", s.SUPI)
}

type invoker struct{}

func (invoker) Post(ctx context.Context, service, path string, req, resp any) error {
	return nil
}

type ProvisionRequest struct {
	Subscriber Subscriber
}

type CountRequest struct {
	SUPI string
}

func ship(ctx context.Context, inv invoker, s Subscriber) error {
	if err := inv.Post(ctx, "udr", "/count", &CountRequest{SUPI: s.SUPI}, nil); err != nil { // clean payload
		return err
	}
	return inv.Post(ctx, "udr", "/provision", &ProvisionRequest{Subscriber: s}, nil) // want "carries the long-term key K across a service interface"
}

// stub is a generic client stub in the shape of sbi.Stub: the request
// and the response it moves are its type arguments, not Post's
// arguments.
type stub[Req, Resp any] struct{ path string }

func (s *stub[Req, Resp]) Post(ctx context.Context, inv invoker, service string, req Req) (Resp, error) {
	var resp Resp
	return resp, inv.Post(ctx, service, s.path, &req, &resp)
}

type GetResponse struct {
	Subscriber Subscriber
}

var (
	countStub = stub[CountRequest, Report]{path: "/count"}
	getStub   = stub[CountRequest, GetResponse]{path: "/get"}
)

func fetch(ctx context.Context, inv invoker, supi string) (Subscriber, error) {
	if _, err := countStub.Post(ctx, inv, "udr", CountRequest{SUPI: supi}); err != nil { // clean payloads
		return Subscriber{}, err
	}
	resp, err := getStub.Post(ctx, inv, "udr", CountRequest{SUPI: supi}) // want "payload type .*GetResponse carries the long-term key K across a service interface"
	return resp.Subscriber, err
}

func annotated(s Subscriber) {
	//shieldlint:ignore secretflow fixture exercises the escape hatch
	fmt.Println(s.K) // want:suppressed "secret field K flows into fmt.Println"
}
