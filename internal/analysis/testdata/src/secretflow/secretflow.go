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

// endpoint is a generic operation in the shape of sbi.Endpoint: the
// request and the response it moves are its type arguments, not the
// arguments of Post or Send (which reads no answer).
type endpoint[Req, Resp any] struct{ path string }

func (e *endpoint[Req, Resp]) Post(ctx context.Context, inv invoker, service string, req Req) (Resp, error) {
	var resp Resp
	return resp, inv.Post(ctx, service, e.path, &req, &resp)
}

func (e *endpoint[Req, Resp]) Send(ctx context.Context, inv invoker, service string, req Req) error {
	return inv.Post(ctx, service, e.path, &req, nil)
}

type GetResponse struct {
	Subscriber Subscriber
}

var (
	count     = endpoint[CountRequest, Report]{path: "/count"}
	get       = endpoint[CountRequest, GetResponse]{path: "/get"}
	provision = endpoint[ProvisionRequest, Report]{path: "/provision"}
)

func fetch(ctx context.Context, inv invoker, supi string) (Subscriber, error) {
	if _, err := count.Post(ctx, inv, "udr", CountRequest{SUPI: supi}); err != nil { // clean payloads
		return Subscriber{}, err
	}
	resp, err := get.Post(ctx, inv, "udr", CountRequest{SUPI: supi}) // want "payload type .*GetResponse carries the long-term key K across a service interface"
	return resp.Subscriber, err
}

func send(ctx context.Context, inv invoker, s Subscriber) error {
	if err := count.Send(ctx, inv, "udr", CountRequest{SUPI: s.SUPI}); err != nil { // clean payloads
		return err
	}
	return provision.Send(ctx, inv, "udr", ProvisionRequest{Subscriber: s}) // want "payload type .*ProvisionRequest carries the long-term key K across a service interface"
}

func annotated(s Subscriber) {
	//shieldlint:ignore secretflow fixture exercises the escape hatch
	fmt.Println(s.K) // want:suppressed "secret field K flows into fmt.Println"
}
