//go:build !race

package udr

import (
	"bytes"
	"context"
	"runtime/debug"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/simclock"
)

// TestHotPathAllocs holds the decode of every UDR message that carries a
// SUPI to an exact allocation count, in both formats: the SUPI is decoded
// in place and costs nothing. What is left is the byte strings' one
// backing: a JSON body's, and a frame's for GetResponse, whose caller keeps
// the record. One NextAuth and one eight-vector NextAuthBatch served
// through the handlers the UDR registered, the client's post and decode
// included, are held in each format too, as a raw post and through the
// Client: the handler fills the backing its served pair keeps and the
// client's stub its pooled pair, so what is left is the backing the
// client owns of the copied fields. With the collector off no sync.Pool is
// emptied mid-count; pools still drop items at random under the race
// detector, so this file builds only without -race; make ci runs it in its
// no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	sub := validSubscriber("imsi-001010000000001")
	for _, row := range []struct {
		msg, into  codec.Message
		bin, jsonN float64
	}{
		{&NextAuthRequest{SUPI: sub.SUPI}, new(NextAuthRequest), 0, 0},
		{&NextAuthBatchRequest{SUPI: sub.SUPI, Count: 8}, new(NextAuthBatchRequest), 0, 0},
		{&GetRequest{SUPI: sub.SUPI}, new(GetRequest), 0, 0},
		{&ResyncRequest{SUPI: sub.SUPI, SQNMS: bytes.Repeat([]byte{1}, sqnLen)}, new(ResyncRequest), 0, 1},
		{&ProvisionRequest{Subscriber: sub}, new(ProvisionRequest), 0, 1},
		{&GetResponse{Subscriber: sub}, new(GetResponse), 1, 1},
	} {
		payload := codec.AppendBinary(nil, row.msg)
		body, err := codec.AppendJSON(nil, row.msg)
		if err != nil {
			t.Fatal(err)
		}
		bin := testing.AllocsPerRun(100, func() { err = codec.DecodeBinary(payload, row.into) })
		jsonN := testing.AllocsPerRun(100, func() { err = codec.DecodeJSON(body, row.into) })
		if err != nil || bin != row.bin || jsonN != row.jsonN {
			t.Errorf("decode %T: %v allocs from a frame, %v from JSON, err %v; want %v, %v, nil", row.into, bin, jsonN, err, row.bin, row.jsonN)
		}
	}

	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	if _, err := New(env, reg); err != nil {
		t.Fatal(err)
	}
	// The posts charge one account, as a served registration's do.
	ctx := simclock.WithAccount(context.Background(), new(simclock.Account))
	jsonClient, binClient := sbi.NewClient("udm", env, reg), sbi.NewClient("udm", env, reg)
	binClient.EnableBinary()
	if err := jsonClient.Post(ctx, ServiceName, PathProvision, &ProvisionRequest{Subscriber: sub}, nil); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	req := &NextAuthRequest{SUPI: sub.SUPI}
	var resp NextAuthResponse
	raw := func(client *sbi.Client) func() error {
		return func() error { return client.Post(ctx, ServiceName, PathNextAuth, req, &resp) }
	}
	typed := func(client *sbi.Client) func() error {
		c, text := NewClient(client), sub.SUPI.String()
		return func() error { _, err := c.NextAuth(ctx, text); return err }
	}
	batchReq := &NextAuthBatchRequest{SUPI: sub.SUPI, Count: 8}
	var batchResp NextAuthBatchResponse
	rawBatch := func(client *sbi.Client) func() error {
		return func() error { return client.Post(ctx, ServiceName, PathNextAuthBatch, batchReq, &batchResp) }
	}
	typedBatch := func(client *sbi.Client) func() error {
		c := NewClient(client)
		return func() error { _, err := c.NextAuthBatch(ctx, sub.SUPI, 8); return err }
	}
	for _, row := range []struct {
		name string
		post func() error
		want float64
	}{
		{"NextAuth post, frame", raw(binClient), 1},
		{"NextAuth post, JSON", raw(jsonClient), 1},
		{"Client.NextAuth, frame", typed(binClient), 1},
		{"Client.NextAuth, JSON", typed(jsonClient), 1},
		{"NextAuthBatch post, frame", rawBatch(binClient), 1},
		{"NextAuthBatch post, JSON", rawBatch(jsonClient), 1},
		{"Client.NextAuthBatch, frame", typedBatch(binClient), 1},
		{"Client.NextAuthBatch, JSON", typedBatch(jsonClient), 1},
	} {
		var err error
		post := func() {
			if perr := row.post(); perr != nil {
				err = perr
			}
		}
		post()
		if n := testing.AllocsPerRun(100, post); err != nil || n != row.want {
			t.Errorf("served %s: %v allocs, err %v; want %v, nil", row.name, n, err, row.want)
		}
	}
}
