//go:build !race

package udr

import (
	"bytes"
	"testing"

	"shield5g/internal/sbi/codec"
)

// TestHotPathAllocs holds the decode of every UDR message that carries a
// SUPI to an exact allocation count, in both formats: the SUPI is decoded
// in place and costs nothing. What is left is the byte strings' one
// backing: a JSON body's, and a frame's for GetResponse, whose caller keeps
// the record. Pools drop items at random under the race detector, so this
// file builds only without -race; make ci runs it on its no-race
// allocation line.
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
}
