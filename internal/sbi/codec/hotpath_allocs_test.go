//go:build !race

package codec

import "testing"

// nested holds a required struct, the one field kind probe lacks.
type nested struct{ Item probeItem }

func (m *nested) Fields(f *Fields) { f.Struct("item", &m.Item, 0) }

// TestHotPathAllocs holds both wire formats to exact allocation counts for
// a message with every field kind (probe, and nested for a required
// struct), one with every fixed width (fixedProbe) and one with each
// identity (idProbe). Encoding appends into a caller-owned buffer and
// allocates nothing; a decode allocates only what the message keeps past
// the body (probe's strings, owned byte strings, optional item and list),
// and a JSON decode also its byte strings' one backing. Fixed-width values
// and identities are decoded in place: nothing. The decode scratch is pooled, and sync.Pool drops items at random
// under the race detector, so this file builds only without -race; make ci
// runs it in its no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	in := &probe{
		S: "imsi-1", Const: "snn", View: []byte{0xDE, 0xAD}, Kept: []byte{9},
		Y: 0x2A, N: 300, Opt: &probeItem{B: []byte{7}},
		Items: []probeItem{{B: []byte{1}}, {}, {B: []byte{3, 3}}},
	}
	fixed := &fixedProbe{H: Bytes16{1}, K: Bytes32{2}}
	ids := new(idProbe)
	if err := DecodeBinary(AppendBinary(nil, &textProbe{S: "imsi-001010000000001", ID: "0000000000000001"}), ids); err != nil {
		t.Fatal(err)
	}
	idPayload := AppendBinary(nil, ids)
	idBody, err := AppendJSON(nil, ids)
	if err != nil {
		t.Fatal(err)
	}
	var idOut idProbe
	wrapped := &nested{Item: probeItem{B: []byte{4, 2}}}
	wrappedPayload := AppendBinary(nil, wrapped)
	var wrappedOut nested
	payload, fixedPayload := AppendBinary(nil, in), AppendBinary(nil, fixed)
	body, err := AppendJSON(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	fixedBody, err := AppendJSON(nil, fixed)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := FinishFrame(append(AppendHeader(nil), payload...))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	var out probe
	var fixedOut fixedProbe
	for _, row := range []struct {
		name string
		want float64
		run  func() error
	}{
		{"AppendBinary(probe)", 0, func() error { buf = AppendBinary(buf[:0], in); return nil }},
		{"AppendJSON(probe)", 0, func() (err error) { buf, err = AppendJSON(buf[:0], in); return err }},
		{"AppendHeader+FinishFrame", 0, func() (err error) {
			buf, err = FinishFrame(append(AppendHeader(buf[:0]), payload...))
			return err
		}},
		{"Payload", 0, func() error { _, err := Payload(frame); return err }},
		{"DecodeBinary(probe)", 6, func() error {
			out = probe{}
			return DecodeBinary(payload, &out)
		}},
		{"DecodeJSON(probe)", 6, func() error {
			out = probe{}
			return DecodeJSON(body, &out)
		}},
		{"AppendBinary(nested)", 0, func() error { buf = AppendBinary(buf[:0], wrapped); return nil }},
		{"DecodeBinary(nested)", 1, func() error { wrappedOut = nested{}; return DecodeBinary(wrappedPayload, &wrappedOut) }},
		{"AppendBinary(fixedProbe)", 0, func() error { buf = AppendBinary(buf[:0], fixed); return nil }},
		{"AppendJSON(fixedProbe)", 0, func() (err error) { buf, err = AppendJSON(buf[:0], fixed); return err }},
		{"DecodeBinary(fixedProbe)", 0, func() error { return DecodeBinary(fixedPayload, &fixedOut) }},
		{"DecodeJSON(fixedProbe)", 0, func() error { return DecodeJSON(fixedBody, &fixedOut) }},
		{"AppendBinary(idProbe)", 0, func() error { buf = AppendBinary(buf[:0], ids); return nil }},
		{"AppendJSON(idProbe)", 0, func() (err error) { buf, err = AppendJSON(buf[:0], ids); return err }},
		{"DecodeBinary(idProbe)", 0, func() error { return DecodeBinary(idPayload, &idOut) }},
		{"DecodeJSON(idProbe)", 0, func() error { return DecodeJSON(idBody, &idOut) }},
		{"Compact: one backing", 1, func() error {
			a, b := payload[:2], payload[2:4]
			Compact(&a, &b)
			return nil
		}},
	} {
		var err error
		n := testing.AllocsPerRun(100, func() {
			if rerr := row.run(); rerr != nil {
				err = rerr
			}
		})
		if err != nil || n != row.want {
			t.Errorf("%s: %v allocs, err %v; want %v, nil", row.name, n, err, row.want)
		}
	}
}
