package sbi

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"shield5g/internal/sbi/codec"
)

type codecFixture struct {
	SUPI string        `json:"supi"`
	RAND []byte        `json:"rand"`
	N    int           `json:"n"`
	D    time.Duration `json:"d,omitempty"`
	Nest *codecFixture `json:"nest,omitempty"`
}

func (m *codecFixture) Fields(f *codec.Fields) {
	f.String("supi", &m.SUPI, 0)
	f.Bytes("rand", &m.RAND, 0)
	codec.Int(f, "n", &m.N, 0)
	codec.Int(f, "d", &m.D, codec.OmitEmpty)
	codec.KeptPtr(f, "nest", &m.Nest, codec.OmitEmpty, nil)
}

// TestMarshalBodyMatchesJSONMarshal pins the pooled encoder byte-for-byte
// to json.Marshal — the SBI cost model charges by body length, so even a
// trailing newline would skew every modelled latency. A string that
// encoding/json escapes takes the codec's fallback.
func TestMarshalBodyMatchesJSONMarshal(t *testing.T) {
	cases := []codec.Message{
		&codecFixture{SUPI: "imsi-001010000000001", RAND: bytes.Repeat([]byte{0xAB}, 16), N: 7},
		&codecFixture{SUPI: "<&>", D: 5 * time.Second, Nest: &codecFixture{N: -1}},
		&ProblemDetails{Title: "Forbidden", Status: 403, Cause: "X", RetryAfter: time.Millisecond},
		&ProblemDetails{Title: "Service Unavailable", Status: 503, Detail: "plain \"string\" with <html>",
			OCI: &OCI{Load: 97, Reduction: 40, RetryAfter: 3 * time.Millisecond, Seq: 12}},
	}
	for i, v := range cases {
		for round := 0; round < 3; round++ { // exercise pool reuse
			got, gerr := MarshalBody(v)
			want, werr := json.Marshal(v)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("case %d: err mismatch: %v vs %v", i, gerr, werr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("case %d round %d:\n got %q\nwant %q", i, round, got, want)
			}
			ReleaseBody(got)
		}
	}
}

// failingMsg is a message encoding/json cannot encode: a string it
// escapes sends the body to encoding/json, which fails in MarshalJSON.
type failingMsg struct{ S string }

func (m *failingMsg) Fields(f *codec.Fields)       { f.String("s", &m.S, 0) }
func (m *failingMsg) MarshalJSON() ([]byte, error) { return nil, errors.New("no encoding") }

func TestMarshalBodyError(t *testing.T) {
	before := OutstandingBodies()
	if _, err := MarshalBody(&failingMsg{S: "<"}); err == nil {
		t.Fatal("marshal of an unencodable message: want error")
	}
	if n := OutstandingBodies() - before; n != 0 {
		t.Fatalf("%d pooled bodies outstanding after a failed marshal", n)
	}
	// The pool must still work after the error path.
	out, err := MarshalBody(&echoReq{Value: "1"})
	if err != nil || string(out) != `{"value":"1"}` {
		t.Fatalf("after error: %q, %v", out, err)
	}
	ReleaseBody(out)
}

// TestUnmarshalBodyMatchesJSONUnmarshal: decodeBody unmarshals a JSON body
// as json.Unmarshal does.
func TestUnmarshalBodyMatchesJSONUnmarshal(t *testing.T) {
	body, _ := json.Marshal(&codecFixture{SUPI: "imsi-9", RAND: []byte{1, 2, 3}, N: 3,
		Nest: &codecFixture{SUPI: "inner"}})
	for round := 0; round < 3; round++ {
		var a, b codecFixture
		if err := decodeBody(body, &a); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := json.Unmarshal(body, &b); err != nil {
			t.Fatal(err)
		}
		if a.SUPI != b.SUPI || !bytes.Equal(a.RAND, b.RAND) || a.N != b.N ||
			(a.Nest == nil) != (b.Nest == nil) || a.Nest.SUPI != b.Nest.SUPI {
			t.Fatalf("round %d: decoded %+v, want %+v", round, a, b)
		}
	}
}

// TestUnmarshalBodyDecodedSlicesDoNotAlias: decoded []byte fields must
// survive the body's release back into the pool.
func TestUnmarshalBodyDecodedSlicesDoNotAlias(t *testing.T) {
	body, _ := MarshalBody(&codecFixture{RAND: bytes.Repeat([]byte{0x5A}, 16)})
	var v codecFixture
	if err := decodeBody(body, &v); err != nil {
		t.Fatal(err)
	}
	ReleaseBody(body)
	// Recycle the buffer through another marshal, overwriting its bytes.
	other, _ := MarshalBody(&codecFixture{SUPI: "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyy"})
	if !bytes.Equal(v.RAND, bytes.Repeat([]byte{0x5A}, 16)) {
		t.Fatal("decoded field aliased the released body")
	}
	ReleaseBody(other)
}

func TestUnmarshalBodyErrors(t *testing.T) {
	var v codecFixture
	if err := decodeBody(nil, &v); err == nil {
		t.Fatal("empty body: want error")
	}
	if err := decodeBody([]byte("{bad"), &v); err == nil {
		t.Fatal("malformed body: want error")
	}
	// Pool still sane after the discard path.
	if err := decodeBody([]byte(`{"n":9}`), &v); err != nil || v.N != 9 {
		t.Fatalf("after error: %+v, %v", v, err)
	}
}

// TestUnmarshalBodyTrailingData pins decodeBody to json.Unmarshal's
// trailing-data semantics — and, critically, proves a body with trailing
// bytes cannot poison the pooled decoder: Decoder.Decode reads one value
// and buffers the rest, so re-pooling that state would hand the leftover
// bytes to the NEXT caller's decode (cross-request corruption).
func TestUnmarshalBodyTrailingData(t *testing.T) {
	cases := []string{
		`{"n":1}{"n":99}`,  // second value
		`{"n":1}garbage`,   // syntactic garbage
		`{"n":1}]`,         // stray close bracket
		`{"n":1} `,         // trailing whitespace (accepted)
		"{\"n\":1}\n\t\r ", // more whitespace flavors (accepted)
		`7 8`,              // bare values
		` {"n":1}`,         // leading whitespace only (accepted)
	}
	for _, body := range cases {
		var got, want codecFixture
		gerr := decodeBody([]byte(body), &got)
		werr := json.Unmarshal([]byte(body), &want)
		if (gerr == nil) != (werr == nil) {
			t.Errorf("%q: err = %v, json.Unmarshal err = %v", body, gerr, werr)
		}
		if gerr == nil && got.N != want.N {
			t.Errorf("%q: decoded %+v, want %+v", body, got, want)
		}
		// Whatever the outcome, the pool must decode the next clean body
		// correctly — a poisoned re-pooled decoder would replay the tail
		// of the previous body here. Drain several pool slots to make a
		// poisoned codec hard to miss.
		for i := 0; i < 4; i++ {
			var next codecFixture
			if err := decodeBody([]byte(`{"n":42}`), &next); err != nil || next.N != 42 {
				t.Fatalf("after %q: pooled decode corrupted: %+v, %v", body, next, err)
			}
		}
	}
}

func TestReleaseBodyNilSafe(t *testing.T) {
	ReleaseBody(nil)
	ReleaseBody([]byte{})
}

// TestReleaseBodyCapsPooledSize: a large response buffer (up to the 1 MiB
// transport limit) must fall to the GC, not get pinned in the pool that
// serves ~300-byte encodes.
func TestReleaseBodyCapsPooledSize(t *testing.T) {
	ReleaseBody(make([]byte, 0, maxPooledBodyCap*4))
	for i := 0; i < 8; i++ {
		if b := getBuf(); cap(b) > maxPooledBodyCap {
			t.Fatalf("oversized buffer (cap %d) entered the pool", cap(b))
		}
	}
}

// TestCodecConcurrent hammers the pools from many goroutines; run with
// -race this proves codec states are never shared.
func TestCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := &codecFixture{SUPI: "imsi-00101", N: g}
			for i := 0; i < 300; i++ {
				body, err := MarshalBody(in)
				if err != nil {
					fail <- err.Error()
					return
				}
				var out codecFixture
				if err := decodeBody(body, &out); err != nil || out.N != g {
					fail <- "decode mismatch under concurrency"
					return
				}
				ReleaseBody(body)
			}
		}(g)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}
