package codec_test

// Golden tests over every described SBI message. Three contracts:
//
//   - golden bytes: the JSON body and the binary frame of every sample are
//     the bytes testdata/golden_bytes.tsv holds (minted from json.Marshal
//     and the hand-written AppendBinary pairs the descriptions replaced).
//     Body lengths feed the virtual TLS/HTTP charges, so one changed byte
//     moves every figure the experiments report.
//   - decode parity: a struct decoded from its frame is bit-identical
//     (reflect.DeepEqual, including the nil/empty distinction) to the same
//     value decoded from its JSON body, which is what lets the transport
//     negotiate formats per path.
//   - encoding/json is the reference for the JSON half, differentially
//     (see differential_test.go).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"net/netip"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"shield5g/internal/crypto/suci"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/smf"
	"shield5g/internal/nf/udm"
	"shield5g/internal/nf/udr"
	"shield5g/internal/nf/upf"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

// sample is one named message value; the name keys golden_bytes.tsv.
type sample struct {
	name string
	msg  codec.Message
}

// fresh returns a zero message of s's type.
func (s sample) fresh() codec.Message {
	return reflect.New(reflect.TypeOf(s.msg).Elem()).Interface().(codec.Message)
}

func frameOf(t testing.TB, m codec.Message) []byte {
	t.Helper()
	frame, err := codec.FinishFrame(codec.AppendBinary(codec.AppendHeader(nil), m))
	if err != nil {
		t.Fatalf("FinishFrame: %v", err)
	}
	return frame
}

func decodeFrame(t testing.TB, frame []byte, into codec.Message) {
	t.Helper()
	payload, err := codec.Payload(frame)
	if err != nil {
		t.Fatalf("Payload: %v", err)
	}
	if err := codec.DecodeBinary(payload, into); err != nil {
		t.Fatalf("DecodeBinary: %v (the description did not consume its own encoding exactly)", err)
	}
}

// TestGoldenBytes fails, by sample name, on any change to an emitted byte
// in either format.
func TestGoldenBytes(t *testing.T) {
	fh, err := os.Open("testdata/golden_bytes.tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	type golden struct{ json, frame string }
	want := make(map[string]golden)
	for sc := bufio.NewScanner(fh); sc.Scan(); {
		col := strings.Split(sc.Text(), "\t")
		if len(col) != 3 {
			t.Fatalf("golden_bytes.tsv: %q: want name, JSON, frame hex", sc.Text())
		}
		want[col[0]] = golden{col[1], col[2]}
	}
	for _, s := range samples() {
		g, ok := want[s.name]
		if !ok {
			t.Errorf("%s: no golden bytes", s.name)
			continue
		}
		delete(want, s.name)
		t.Run(s.name, func(t *testing.T) {
			got, err := codec.AppendJSON(nil, s.msg)
			if err != nil || string(got) != g.json {
				t.Errorf("JSON body changed (err %v):\n got %s\nwant %s", err, got, g.json)
			}
			if fast, ok := codec.FastAppendJSON(nil, s.msg); !ok || !bytes.Equal(fast, got) {
				t.Errorf("sample left the JSON fast path (ok=%v)", ok)
			}
			if ref, _ := json.Marshal(s.msg); string(ref) != g.json {
				t.Errorf("encoding/json disagrees with the golden body: %s", ref)
			}
			if frame := hex.EncodeToString(frameOf(t, s.msg)); frame != g.frame {
				t.Errorf("binary frame changed:\n got %s\nwant %s", frame, g.frame)
			}
		})
	}
	for name := range want {
		t.Errorf("%s: golden bytes without a sample", name)
	}
}

// TestGoldenDecodeParity: frame decode == JSON decode == the reference.
func TestGoldenDecodeParity(t *testing.T) {
	for _, s := range samples() {
		t.Run(s.name, func(t *testing.T) {
			binOut := s.fresh()
			decodeFrame(t, frameOf(t, s.msg), binOut)

			data, err := json.Marshal(s.msg)
			if err != nil {
				t.Fatalf("json.Marshal: %v", err)
			}
			ref := s.fresh()
			if err := json.Unmarshal(data, ref); err != nil {
				t.Fatalf("json.Unmarshal: %v", err)
			}
			jsonOut := s.fresh()
			if !codec.FastDecodeJSON(data, jsonOut) {
				t.Fatal("canonical body left the JSON fast path")
			}

			if !reflect.DeepEqual(binOut, ref) {
				t.Errorf("binary and reference decodes diverge:\n binary: %#v\n json:   %#v", binOut, ref)
			}
			if !reflect.DeepEqual(jsonOut, ref) {
				t.Errorf("JSON and reference decodes diverge:\n fast: %#v\n json: %#v", jsonOut, ref)
			}
		})
	}
}

// TestBatchCountBoundsItsAllocation: a frame's list count is bounded by
// the elements the bytes after it can frame, a zero element's frame each
// (6 bytes for a batch item), not by the bytes themselves, so a hostile
// count cannot make an item backing 128 bytes per byte of body. A count at
// the bytes that remain is truncated before anything is sized by it, and
// a count the zeros after it do frame decodes.
func TestBatchCountBoundsItsAllocation(t *testing.T) {
	const size = 64 << 10
	payload := binary.AppendUvarint(nil, size-3) // three bytes
	payload = append(payload, make([]byte, size-len(payload))...)
	out := new(paka.UDMGenerateAVBatchRequest)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := codec.DecodeBinary(payload, out)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("count %d over %d bytes: err = %v, want ErrTruncated", size-3, size-3, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= size {
		t.Errorf("count %d over %d bytes: decode allocated %d bytes, want fewer than the body's %d", size-3, size-3, n, size)
	}
	zeros := append(binary.AppendUvarint(nil, 1000), make([]byte, 6*1000)...)
	if err := codec.DecodeBinary(zeros, out); err != nil || len(out.Items) != 1000 {
		t.Fatalf("1000 zero items: %d decoded, err %v", len(out.Items), err)
	}
}

func sampleSUCI() *suci.SUCI {
	return &suci.SUCI{
		MCC:              "001",
		MNC:              "01",
		RoutingIndicator: "0000",
		Scheme:           suci.SchemeProfileA,
		HomeKeyID:        1,
		SchemeOutput:     []byte{0x10, 0x11, 0x12, 0x13, 0x14},
	}
}

func sampleAVRequest(supi string) paka.UDMGenerateAVRequest {
	return paka.UDMGenerateAVRequest{
		SUPI:  supi,
		OPc:   bytesOf(16, 0xA0),
		RAND:  bytesOf(16, 0xB0),
		SQN:   bytesOf(6, 0xC0),
		AMFID: []byte{0x80, 0x00},
		SNN:   "5G:mnc001.mcc001.3gppnetwork.org",
	}
}

// sampleAVItem is sampleAVRequest as one item of a batch.
func sampleAVItem(text string) paka.UDMGenerateAVItem {
	req := sampleAVRequest(text)
	return paka.UDMGenerateAVItem{SUPI: supi(text), OPc: req.OPc, RAND: req.RAND, SQN: req.SQN, AMFID: req.AMFID, SNN: req.SNN}
}

func sampleAVResponse(seed byte) paka.UDMGenerateAVResponse {
	return paka.UDMGenerateAVResponse{
		RAND:     codec.Bytes16(bytesOf(16, seed)),
		AUTN:     codec.Bytes16(bytesOf(16, seed+1)),
		XRESStar: codec.Bytes16(bytesOf(16, seed+2)),
		KAUSF:    codec.Bytes32(bytesOf(32, seed+3)),
	}
}

// supi and authCtxID parse sample identities, which must be well formed.
func supi(text string) codec.SUPI {
	v, err := codec.ParseSUPI(text)
	if err != nil {
		panic(err)
	}
	return v
}

func authCtxID(text string) codec.AuthCtxID {
	var v codec.AuthCtxID
	if err := v.UnmarshalText([]byte(text)); err != nil {
		panic(err)
	}
	return v
}

func bytesOf(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// samples lists every described message type at least once.
func samples() []sample {
	const snn = "5G:mnc001.mcc001.3gppnetwork.org"
	avReq := sampleAVRequest("imsi-001010000000001")
	avResp := sampleAVResponse(0x20)
	sub := udr.Subscriber{
		SUPI:     supi("imsi-001010000000014"),
		K:        bytesOf(16, 0x0D),
		OPc:      bytesOf(16, 0x0E),
		SQN:      bytesOf(6, 0x0F),
		AMFField: []byte{0x80, 0x00},
	}
	return []sample{
		{"paka.UDMGenerateAVRequest", &avReq},
		{"paka.UDMGenerateAVRequest/nil-fields", &paka.UDMGenerateAVRequest{SUPI: "imsi-001010000000002"}},
		{"paka.UDMGenerateAVResponse", &avResp},
		{"paka.UDMGenerateAVResponse/zero", &paka.UDMGenerateAVResponse{}},
		// A batch of one must behave exactly like the JSON path, so pool
		// refills with batch size 1 are indistinguishable across codecs.
		{"paka.UDMGenerateAVBatchRequest/batch-of-1", &paka.UDMGenerateAVBatchRequest{
			Items: []paka.UDMGenerateAVItem{sampleAVItem("imsi-001010000000003")},
		}},
		{"paka.UDMGenerateAVBatchRequest/batch-of-3", &paka.UDMGenerateAVBatchRequest{
			Items: []paka.UDMGenerateAVItem{
				sampleAVItem("imsi-001010000000004"),
				sampleAVItem("imsi-001010000000005"),
				sampleAVItem("imsi-001010000000006"),
			},
		}},
		{"paka.UDMGenerateAVBatchRequest/nil-items", &paka.UDMGenerateAVBatchRequest{}},
		{"paka.UDMGenerateAVBatchResponse/batch-of-1", &paka.UDMGenerateAVBatchResponse{
			Vectors: []paka.UDMGenerateAVResponse{sampleAVResponse(0x30)},
		}},
		{"paka.UDMGenerateAVBatchResponse/batch-of-3", &paka.UDMGenerateAVBatchResponse{
			Vectors: []paka.UDMGenerateAVResponse{sampleAVResponse(0x40), sampleAVResponse(0x50), sampleAVResponse(0x60)},
		}},
		{"paka.UDMGenerateAVBatchResponse/nil-vectors", &paka.UDMGenerateAVBatchResponse{}},
		{"paka.UDMResyncRequest", &paka.UDMResyncRequest{
			SUPI: supi("imsi-001010000000007"),
			OPc:  bytesOf(16, 0x70),
			RAND: bytesOf(16, 0x71),
			AUTS: bytesOf(14, 0x72),
		}},
		{"paka.UDMResyncResponse", &paka.UDMResyncResponse{SQNMS: bytesOf(6, 0x73)}},
		{"paka.AUSFDeriveSERequest", &paka.AUSFDeriveSERequest{
			RAND:     codec.Bytes16(bytesOf(16, 0x74)),
			XRESStar: codec.Bytes16(bytesOf(16, 0x75)),
			KAUSF:    codec.Bytes32(bytesOf(32, 0x76)),
			SNN:      snn,
		}},
		{"paka.AUSFDeriveSEResponse", &paka.AUSFDeriveSEResponse{
			HXRESStar: codec.Bytes16(bytesOf(16, 0x77)),
			KSEAF:     codec.Bytes32(bytesOf(32, 0x78)),
		}},
		{"paka.AMFDeriveKAMFRequest", &paka.AMFDeriveKAMFRequest{
			KSEAF: codec.Bytes32(bytesOf(32, 0x79)),
			SUPI:  "imsi-001010000000008",
			ABBA:  []byte{0x00, 0x00},
		}},
		{"paka.AMFDeriveKAMFResponse", &paka.AMFDeriveKAMFResponse{KAMF: codec.Bytes32(bytesOf(32, 0x7A))}},

		{"udm.GenerateAuthDataRequest/suci", &udm.GenerateAuthDataRequest{SUCI: sampleSUCI(), ServingNetworkName: snn}},
		{"udm.GenerateAuthDataRequest/supi-reauth", &udm.GenerateAuthDataRequest{SUPI: "imsi-001010000000009", ServingNetworkName: snn}},
		{"udm.GenerateAuthDataResponse", &udm.GenerateAuthDataResponse{
			SUPI:     supi("imsi-001010000000010"),
			RAND:     codec.Bytes16(bytesOf(16, 0x01)),
			AUTN:     codec.Bytes16(bytesOf(16, 0x02)),
			XRESStar: codec.Bytes16(bytesOf(16, 0x03)),
			KAUSF:    codec.Bytes32(bytesOf(32, 0x04)),
		}},
		{"udm.ResyncRequest", &udm.ResyncRequest{
			SUPI: supi("imsi-001010000000011"),
			RAND: bytesOf(16, 0x05),
			AUTS: bytesOf(14, 0x06),
		}},
		{"udm.Empty", &udm.Empty{}},

		{"ausf.AuthenticateRequest/suci", &ausf.AuthenticateRequest{SUCI: sampleSUCI(), ServingNetworkName: snn}},
		{"ausf.AuthenticateRequest/supi-reauth", &ausf.AuthenticateRequest{SUPI: "imsi-001010000000012", ServingNetworkName: snn}},
		{"ausf.AuthenticateResponse", &ausf.AuthenticateResponse{
			AuthCtxID: authCtxID("authctx-42"),
			RAND:      codec.Bytes16(bytesOf(16, 0x07)),
			AUTN:      codec.Bytes16(bytesOf(16, 0x08)),
			HXRESStar: codec.Bytes16(bytesOf(16, 0x09)),
		}},
		{"ausf.ConfirmRequest", &ausf.ConfirmRequest{AuthCtxID: authCtxID("authctx-42"), ResStar: codec.Bytes16(bytesOf(16, 0x0A))}},
		{"ausf.ConfirmResponse", &ausf.ConfirmResponse{SUPI: supi("imsi-001010000000013"), KSEAF: codec.Bytes32(bytesOf(32, 0x0B))}},
		{"ausf.ResyncRequest", &ausf.ResyncRequest{AuthCtxID: authCtxID("authctx-43"), AUTS: bytesOf(14, 0x0C)}},

		{"udr.Subscriber", &sub},
		{"udr.ProvisionRequest", &udr.ProvisionRequest{Subscriber: sub}},
		{"udr.Empty", &udr.Empty{}},
		{"udr.NextAuthRequest", &udr.NextAuthRequest{SUPI: sub.SUPI}},
		{"udr.NextAuthResponse", &udr.NextAuthResponse{
			OPc:      bytesOf(16, 0x10),
			SQN:      bytesOf(6, 0x11),
			AMFField: []byte{0x80, 0x00},
		}},
		{"udr.NextAuthBatchRequest", &udr.NextAuthBatchRequest{SUPI: sub.SUPI, Count: 8}},
		{"udr.NextAuthBatchResponse", &udr.NextAuthBatchResponse{
			OPc:      bytesOf(16, 0x12),
			AMFField: []byte{0x80, 0x00},
			SQNs:     bytesOf(48, 0x13),
		}},
		{"udr.ResyncRequest", &udr.ResyncRequest{SUPI: sub.SUPI, SQNMS: bytesOf(6, 0x14)}},
		{"udr.GetRequest", &udr.GetRequest{SUPI: sub.SUPI}},
		{"udr.GetResponse", &udr.GetResponse{Subscriber: sub}},

		{"suci.SUCI/profile-a", sampleSUCI()},
		{"suci.SUCI/null-scheme", &suci.SUCI{
			MCC:              "001",
			MNC:              "01",
			RoutingIndicator: "0000",
			Scheme:           suci.SchemeNull,
			HomeKeyID:        0,
			SchemeOutput:     []byte("0000000001"),
		}},

		{"nrf.NFProfile", &udmProfile},
		{"nrf.RegisterRequest", &nrf.RegisterRequest{Profile: udmProfile}},
		{"nrf.RegisterResponse", &nrf.RegisterResponse{HeartbeatSeconds: 10}},
		{"nrf.DiscoverRequest", &nrf.DiscoverRequest{NFType: "UDM", RequireHMEE: true}},
		{"nrf.DiscoverRequest/any-host", &nrf.DiscoverRequest{NFType: "SMF"}},
		{"nrf.DiscoverResponse", &nrf.DiscoverResponse{Profiles: []nrf.NFProfile{
			udmProfile, {InstanceID: "udm-r1-1", NFType: "UDM", Service: "udm-r1"},
		}}},
		{"nrf.DiscoverResponse/nil-profiles", &nrf.DiscoverResponse{}},

		{"smf.CreateSessionRequest", &smf.CreateSessionRequest{SUPI: supi("imsi-001010000000015"), SessionID: 1, DNN: "internet"}},
		{"smf.CreateSessionResponse", &smf.CreateSessionResponse{UEAddress: netip.MustParseAddr("10.60.0.2"), TEID: 7}},
		{"smf.ReleaseSessionRequest", &smf.ReleaseSessionRequest{SUPI: supi("imsi-001010000000016"), SessionID: 1}},
		{"smf.Empty", &smf.Empty{}},

		{"upf.EstablishRequest", &upf.EstablishRequest{SEID: 7, UEAddress: netip.MustParseAddr("10.60.0.2")}},
		{"upf.EstablishResponse", &upf.EstablishResponse{TEID: math.MaxUint32}},
		{"upf.ReleaseRequest", &upf.ReleaseRequest{SEID: math.MaxUint64}},
		{"upf.Empty", &upf.Empty{}},

		{"sbi.ProblemDetails", &sbi.ProblemDetails{
			Title: "Service Unavailable", Status: 503, Detail: "udm shed the request", Cause: sbi.CauseOverload,
			RetryAfter: 3 * time.Millisecond, OCI: &sbi.OCI{Load: 97, Reduction: 40, RetryAfter: 3 * time.Millisecond, Seq: 12},
		}},
		{"sbi.ProblemDetails/omitted", &sbi.ProblemDetails{Title: "Not Found", Status: 404}},
		{"sbi.OCI", &sbi.OCI{Load: 97, Reduction: 40, RetryAfter: 3 * time.Millisecond, Seq: 12}},
		{"sbi.OCI/omitted", &sbi.OCI{Load: 20}},
	}
}

// udmProfile is the NRF profile of a UDM instance on an HMEE host.
var udmProfile = nrf.NFProfile{InstanceID: "udm-1", NFType: "UDM", Service: "udm", HMEE: true}

// identityText maps every sample whose message carries a SUPI or an
// auth-context ID as a value to that value's text.
var identityText = map[string]string{
	"paka.UDMGenerateAVBatchRequest/batch-of-1": "imsi-001010000000003",
	"paka.UDMGenerateAVBatchRequest/batch-of-3": "imsi-001010000000004",
	"paka.UDMResyncRequest":                     "imsi-001010000000007",
	"udm.GenerateAuthDataResponse":              "imsi-001010000000010",
	"udm.ResyncRequest":                         "imsi-001010000000011",
	"ausf.AuthenticateResponse":                 "authctx-42",
	"ausf.ConfirmRequest":                       "authctx-42",
	"ausf.ConfirmResponse":                      "imsi-001010000000013",
	"ausf.ResyncRequest":                        "authctx-43",
	"udr.Subscriber":                            "imsi-001010000000014",
	"udr.ProvisionRequest":                      "imsi-001010000000014",
	"udr.NextAuthRequest":                       "imsi-001010000000014",
	"udr.NextAuthBatchRequest":                  "imsi-001010000000014",
	"udr.ResyncRequest":                         "imsi-001010000000014",
	"udr.GetRequest":                            "imsi-001010000000014",
	"udr.GetResponse":                           "imsi-001010000000014",
	"smf.CreateSessionRequest":                  "imsi-001010000000015",
	"smf.ReleaseSessionRequest":                 "imsi-001010000000016",
}

// carriesIdentity reports whether v holds a codec.SUPI or codec.AuthCtxID,
// directly, in a nested struct or in an element of a list.
func carriesIdentity(v reflect.Value) bool {
	switch v.Type() {
	case reflect.TypeOf(codec.SUPI{}), reflect.TypeOf(codec.AuthCtxID{}):
		return true
	}
	switch v.Kind() {
	case reflect.Slice:
		for i := range v.Len() {
			if carriesIdentity(v.Index(i)) {
				return true
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if carriesIdentity(v.Field(i)) {
				return true
			}
		}
	}
	return false
}

// TestIdentityMessages: every message that carries an identity value comes
// back from its frame and from its JSON body as the value it was, and
// decoding rejects, in both formats, identity text the type does not
// accept: a non-digit, nothing after the prefix or a seventeenth digit in
// a SUPI; a seventeenth byte or one that is not plain in an auth-context
// ID.
func TestIdentityMessages(t *testing.T) {
	for _, s := range samples() {
		text, listed := identityText[s.name]
		if carries := carriesIdentity(reflect.ValueOf(s.msg).Elem()); carries != listed {
			t.Fatalf("%s: carries an identity %v, listed in identityText %v", s.name, carries, listed)
		}
		if !listed {
			continue
		}
		t.Run(s.name, func(t *testing.T) {
			fromFrame, fromJSON := s.fresh(), s.fresh()
			decodeFrame(t, frameOf(t, s.msg), fromFrame)
			body, err := codec.AppendJSON(nil, s.msg)
			if err != nil {
				t.Fatal(err)
			}
			if err := codec.DecodeJSON(body, fromJSON); err != nil {
				t.Fatalf("DecodeJSON: %v", err)
			}
			if !reflect.DeepEqual(fromFrame, s.msg) || !reflect.DeepEqual(fromJSON, s.msg) {
				t.Fatalf("round trips:\n frame %#v\n JSON  %#v\n want  %#v", fromFrame, fromJSON, s.msg)
			}

			payload := codec.AppendBinary(nil, s.msg)
			at := bytes.Index(payload, []byte(text))
			if at < 1 || int(payload[at-1]) != len(text) {
				t.Fatalf("%q is not a length-prefixed string in %x", text, payload)
			}
			bad := []string{"authctx-42-overlong", "authctx<42", "authctx\x0142", "authctx-\xff"}
			if strings.HasPrefix(text, "imsi-") {
				bad = []string{"imsi-00101000000001x", "imsi-", "imsi-00101000000000001", "imsi-0010100000\x01"}
			}
			for _, b := range bad {
				frame := append(append(append(bytes.Clone(payload[:at-1]), byte(len(b))), b...), payload[at+len(text):]...)
				if err := codec.DecodeBinary(frame, s.fresh()); !errors.Is(err, codec.ErrIdentity) {
					t.Errorf("%q in a frame: err %v, want ErrIdentity", b, err)
				}
				quoted, _ := json.Marshal(b)
				doc := bytes.Replace(body, []byte(`"`+text+`"`), quoted, 1)
				if err := codec.DecodeJSON(doc, s.fresh()); !errors.Is(err, codec.ErrIdentity) {
					t.Errorf("%s: err %v, want ErrIdentity", doc, err)
				}
			}
		})
	}
}
