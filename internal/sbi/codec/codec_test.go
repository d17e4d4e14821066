package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"unsafe"
)

// probe exercises every field kind of a description.
type probe struct {
	S     string
	Const string // interned
	View  []byte
	Kept  []byte // Own
	Y     byte
	N     int
	Opt   *probeItem
	Items []probeItem
}

type probeItem struct{ B []byte }

func (m *probe) Fields(f *Fields) {
	f.String("s", &m.S, 0)
	f.String("const", &m.Const, Intern)
	f.Bytes("view", &m.View, 0)
	f.Bytes("kept", &m.Kept, Own)
	f.Byte("y", &m.Y)
	f.Int("n", &m.N)
	Ptr(f, "opt", &m.Opt, OmitEmpty)
	List(f, "items", &m.Items)
}

func (m *probeItem) Fields(f *Fields) { f.Bytes("b", &m.B, Own) }

// buildFrame assembles a finished frame around the given payload.
func buildFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	frame, err := FinishFrame(append(AppendHeader(nil), payload...))
	if err != nil {
		t.Fatalf("FinishFrame: %v", err)
	}
	return frame
}

// TestFramePayloadLayout pins the frame encoding of every field kind,
// byte by byte, and its decode: nil and empty byte strings stay apart,
// views point into the payload, owned byte strings do not.
func TestFramePayloadLayout(t *testing.T) {
	in := &probe{
		S: "imsi-1", Const: "snn", View: []byte{0xDE, 0xAD}, Kept: []byte{},
		Y: 0x2A, N: 300, Opt: &probeItem{B: []byte{7}},
		Items: []probeItem{{B: []byte{1}}, {}, {B: []byte{3, 3}}},
	}
	want := []byte{6, 'i', 'm', 's', 'i', '-', '1', 3, 's', 'n', 'n'}
	want = append(want, 3, 0xDE, 0xAD) // length+1, bytes
	want = append(want, 1)             // empty, not nil
	want = append(want, 0x2A)          // raw byte
	want = binary.AppendUvarint(want, 300)
	want = append(want, 1, 2, 7)             // present, then the item
	want = append(want, 3, 2, 1, 0, 3, 3, 3) // count, then the items; 0 is a nil byte string
	payload := AppendBinary(nil, in)
	if !bytes.Equal(payload, want) {
		t.Fatalf("payload\n got %x\nwant %x", payload, want)
	}

	frame := buildFrame(t, payload)
	if !IsFrame(frame) {
		t.Fatalf("IsFrame(frame) = false")
	}
	body, err := Payload(frame)
	if err != nil {
		t.Fatalf("Payload: %v", err)
	}
	var out probe
	if err := DecodeBinary(body, &out); err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if !reflect.DeepEqual(&out, in) {
		t.Fatalf("decoded %+v, want %+v", &out, in)
	}
	for i := range body {
		body[i] = 0xFF
	}
	if out.View[0] != 0xFF {
		t.Error("View is a copy, want a view into the payload")
	}
	if out.Opt.B[0] != 7 || out.Items[2].B[0] != 3 || out.S != "imsi-1" {
		t.Errorf("owned fields alias the payload: %+v", &out)
	}

	var zero probe
	if err := DecodeBinary(AppendBinary(nil, &zero), &out); err != nil || !reflect.DeepEqual(&out, &zero) {
		t.Fatalf("zero message decoded as %+v, %v", &out, err)
	}
}

func TestIsFrameRejectsJSONAndShort(t *testing.T) {
	for _, b := range [][]byte{nil, {}, []byte(`{"supi":"x"}`), []byte(`[1]`), []byte(`"s"`), {Magic}, {Magic, 0, 0, 0}} {
		if IsFrame(b) {
			t.Errorf("IsFrame(%q) = true", b)
		}
	}
}

func TestPayloadErrors(t *testing.T) {
	valid := buildFrame(t, []byte{1, 'x'})

	t.Run("not-frame", func(t *testing.T) {
		if _, err := Payload([]byte(`{"a":1}`)); !errors.Is(err, ErrNotFrame) {
			t.Fatalf("err = %v, want ErrNotFrame", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := Payload(valid[:len(valid)-1]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("trailing", func(t *testing.T) {
		if _, err := Payload(append(append([]byte{}, valid...), 0xFF)); !errors.Is(err, ErrTrailing) {
			t.Fatalf("err = %v, want ErrTrailing", err)
		}
	})
	t.Run("oversized-declared-length", func(t *testing.T) {
		b := []byte{Magic, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(b[1:], MaxPayload+1)
		if _, err := Payload(b); !errors.Is(err, ErrOversized) {
			t.Fatalf("err = %v, want ErrOversized", err)
		}
	})
}

func TestFinishFrameOversized(t *testing.T) {
	buf := AppendHeader(make([]byte, 0, headerLen+MaxPayload+1))
	buf = append(buf, make([]byte, MaxPayload+1)...)
	if _, err := FinishFrame(buf); !errors.Is(err, ErrOversized) {
		t.Fatalf("err = %v, want ErrOversized", err)
	}
	if _, err := FinishFrame([]byte{'{', 0, 0, 0, 0}); !errors.Is(err, ErrNotFrame) {
		t.Fatalf("err = %v, want ErrNotFrame", err)
	}
}

func TestDecodeBinaryStickyError(t *testing.T) {
	// A string claiming more bytes than remain poisons the decode: every
	// later field reads as its zero value, nothing keeps a view, and the
	// first error is the one reported.
	payload := append(binary.AppendUvarint(nil, 100), "short"...)
	out := probe{S: "stale", Y: 9, N: 9, View: []byte{9}, Kept: []byte{9}, Opt: &probeItem{}, Items: []probeItem{{}}}
	if err := DecodeBinary(payload, &out); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if out.Y != 0 || out.N != 0 || out.View != nil || out.Kept != nil || out.Opt != nil || out.Items != nil {
		t.Errorf("fields after the error: %+v", &out)
	}
	// The pooled visitor does not carry the error into the next decode.
	if err := DecodeBinary(AppendBinary(nil, &probe{Y: 7}), &out); err != nil || out.Y != 7 {
		t.Fatalf("decode after an error: %+v, %v", &out, err)
	}
}

func TestDecodeBinaryTrailing(t *testing.T) {
	payload := append(AppendBinary(nil, &probe{}), 0xEE)
	if err := DecodeBinary(payload, new(probe)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("err = %v, want ErrTrailing", err)
	}
}

func TestListCountBoundsHostileValue(t *testing.T) {
	// A count far beyond the remaining payload must fail instead of
	// sizing a huge decode-side allocation...
	prefix := AppendBinary(nil, &probe{})
	prefix = prefix[:len(prefix)-1] // drop the zero count
	var out probe
	if err := DecodeBinary(binary.AppendUvarint(prefix, 1<<40), &out); !errors.Is(err, ErrTruncated) || out.Items != nil {
		t.Fatalf("err = %v, items = %v; want ErrTruncated, nil", err, out.Items)
	}
	// ...while an Int is a bare scalar and accepts the same value.
	if err := DecodeBinary(AppendBinary(nil, &probe{N: 1 << 40}), &out); err != nil || out.N != 1<<40 {
		t.Fatalf("N = %d, %v", out.N, err)
	}
}

func TestCompactOwnership(t *testing.T) {
	backing := []byte("aaaabbbbcc")
	a := backing[0:4]
	b := backing[4:8]
	var nilField []byte
	empty := backing[8:8]

	Compact(&a, &b, &nilField, &empty)

	if nilField != nil {
		t.Errorf("nil field rewritten to %#v", nilField)
	}
	if empty == nil || len(empty) != 0 {
		t.Errorf("empty field = %#v, want non-nil empty", empty)
	}
	// The compacted fields no longer alias the transport buffer:
	// clobbering it must not change them.
	for i := range backing {
		backing[i] = 0xFF
	}
	if string(a) != "aaaa" || string(b) != "bbbb" {
		t.Errorf("compacted fields alias the old backing: a=%q b=%q", a, b)
	}
	// Full-capacity slices: a write past one field cannot reach the next
	// even though they share a backing array.
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Errorf("compacted fields are not capacity-clamped: cap(a)=%d cap(b)=%d", cap(a), cap(b))
	}
}

func TestCompactAllEmpty(t *testing.T) {
	var nilField []byte
	empty := []byte{}
	Compact(&nilField, &empty)
	if nilField != nil {
		t.Errorf("nil field = %#v", nilField)
	}
	if empty == nil || len(empty) != 0 {
		t.Errorf("empty field = %#v", empty)
	}
}

type constOnly struct{ SNN string }

func (m *constOnly) Fields(f *Fields) { f.String("snn", &m.SNN, Intern) }

// TestInternedStringIsCanonical: after first sight the bounded intern
// table serves one canonical copy, in either format, so decoding a
// protocol constant again allocates nothing for it.
func TestInternedStringIsCanonical(t *testing.T) {
	in := &constOnly{SNN: "5G:mnc001.mcc001.3gppnetwork.org"}
	frame, body := AppendBinary(nil, in), []byte(`{"snn":"5G:mnc001.mcc001.3gppnetwork.org"}`)
	var first, fromFrame, fromJSON constOnly
	if err := DecodeBinary(frame, &first); err != nil || first.SNN != in.SNN {
		t.Fatalf("DecodeBinary = %q, %v", first.SNN, err)
	}
	if err := DecodeBinary(frame, &fromFrame); err != nil {
		t.Fatal(err)
	}
	if err := DecodeJSON(body, &fromJSON); err != nil {
		t.Fatal(err)
	}
	for _, got := range []string{fromFrame.SNN, fromJSON.SNN} {
		if got != in.SNN || unsafe.StringData(got) != unsafe.StringData(first.SNN) {
			t.Errorf("decoded %q is not the interned copy", got)
		}
	}
}

// FuzzFramePayload throws arbitrary bytes at the frame parser and the
// frame decoder: whatever the input, parsing must never panic, a frame
// accepted by Payload must satisfy the header/length invariants, and a
// failed decode must leave no view behind.
func FuzzFramePayload(f *testing.F) {
	valid := buildFrameBytes(AppendBinary(nil, &probe{
		S: "imsi-00101-0000000001", View: []byte{1, 2, 3, 4}, Y: 7, Opt: &probeItem{}, Items: make([]probeItem, 2),
	}))
	f.Add(valid)
	f.Add(buildFrameBytes(nil))
	f.Add([]byte(`{"supi":"imsi-00101-0000000001"}`))
	f.Add([]byte{Magic})
	f.Add([]byte{Magic, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte{}, valid...), 0xAA))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Payload(data)
		if err != nil {
			if payload != nil {
				t.Fatalf("Payload returned bytes alongside error %v", err)
			}
			return
		}
		if !IsFrame(data) {
			t.Fatalf("Payload accepted a non-frame")
		}
		if len(payload) > MaxPayload {
			t.Fatalf("payload length %d exceeds MaxPayload", len(payload))
		}
		var out probe
		if err := DecodeBinary(payload, &out); err != nil && (out.Kept != nil || out.Opt != nil && out.Opt.B != nil) {
			t.Fatalf("failed decode (%v) left owned fields: %+v", err, &out)
		}
	})
}

func buildFrameBytes(payload []byte) []byte {
	frame, _ := FinishFrame(append(AppendHeader(nil), payload...))
	return frame
}
