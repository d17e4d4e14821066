package kdf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"testing"
	"testing/quick"
)

// Generic runs the KDF on a fresh buffer, for the checks against manual
// HMAC constructions.
func Generic(key []byte, fc byte, params ...[]byte) []byte {
	out := make([]byte, sha256.Size)
	GenericInto(out, key, fc, params...)
	return out
}

// The derive helpers run one *Into derivation on a fresh destination of its
// canonical size.
func deriveKAUSF(ck, ik []byte, snn string, sqnXorAK []byte) ([]byte, error) {
	dst := make([]byte, KeyLen256)
	return dst, KAUSFInto(dst, ck, ik, snn, sqnXorAK)
}

func deriveResStar(ck, ik []byte, snn string, rand, res []byte) ([]byte, error) {
	dst := make([]byte, KeyLen128)
	return dst, ResStarInto(dst, ck, ik, snn, rand, res)
}

func deriveHXResStar(rand, xresStar []byte) ([]byte, error) {
	dst := make([]byte, KeyLen128)
	return dst, HXResStarInto(dst, rand, xresStar)
}

func deriveKSEAF(kausf []byte, snn string) ([]byte, error) {
	dst := make([]byte, KeyLen256)
	return dst, KSEAFInto(dst, kausf, snn)
}

func deriveKAMF(kseaf []byte, supi string, abba []byte) ([]byte, error) {
	dst := make([]byte, KeyLen256)
	return dst, KAMFInto(dst, kseaf, supi, abba)
}

func deriveAlgorithmKey(kamf []byte, typ AlgorithmType, algoID byte) ([]byte, error) {
	dst := make([]byte, KeyLen128)
	return dst, AlgorithmKeyInto(dst, kamf, typ, algoID)
}

func TestGenericMatchesManualConstruction(t *testing.T) {
	key := []byte{1, 2, 3, 4}
	p0 := []byte("abc")
	p1 := []byte{0xff}

	// Manual S = FC || P0 || L0 || P1 || L1 per TS 33.220 Annex B.
	s := []byte{0x6A}
	s = append(s, p0...)
	s = append(s, 0x00, 0x03)
	s = append(s, p1...)
	s = append(s, 0x00, 0x01)
	mac := hmac.New(sha256.New, key)
	mac.Write(s)
	want := mac.Sum(nil)

	if got := Generic(key, 0x6A, p0, p1); !bytes.Equal(got, want) {
		t.Fatalf("Generic = %x, want %x", got, want)
	}
}

func TestGenericNoParams(t *testing.T) {
	key := []byte("k")
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte{0x42})
	if got := Generic(key, 0x42); !bytes.Equal(got, mac.Sum(nil)) {
		t.Fatal("Generic with no params mismatched")
	}
}

func TestGenericEmptyParamEncoded(t *testing.T) {
	// An empty parameter still contributes its zero length field.
	key := []byte("k")
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte{0x10, 0x00, 0x00})
	if got := Generic(key, 0x10, []byte{}); !bytes.Equal(got, mac.Sum(nil)) {
		t.Fatal("Generic with empty param mismatched")
	}
}

func validCKIK() ([]byte, []byte) {
	ck := bytes.Repeat([]byte{0xc1}, 16)
	ik := bytes.Repeat([]byte{0x1c}, 16)
	return ck, ik
}

func TestKAUSFLengthAndDeterminism(t *testing.T) {
	ck, ik := validCKIK()
	sqnAK := make([]byte, 6)
	a, err := deriveKAUSF(ck, ik, "5G:mnc001.mcc001.3gppnetwork.org", sqnAK)
	if err != nil {
		t.Fatalf("KAUSFInto: %v", err)
	}
	if len(a) != KeyLen256 {
		t.Fatalf("K_AUSF length = %d, want %d", len(a), KeyLen256)
	}
	b, err := deriveKAUSF(ck, ik, "5G:mnc001.mcc001.3gppnetwork.org", sqnAK)
	if err != nil {
		t.Fatalf("KAUSFInto: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("K_AUSF not deterministic")
	}
	c, err := deriveKAUSF(ck, ik, "5G:mnc002.mcc001.3gppnetwork.org", sqnAK)
	if err != nil {
		t.Fatalf("KAUSFInto: %v", err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("K_AUSF ignores serving network name")
	}
}

func TestKAUSFBadLengths(t *testing.T) {
	ck, ik := validCKIK()
	if _, err := deriveKAUSF(ck[:15], ik, "snn", make([]byte, 6)); err == nil {
		t.Fatal("short CK accepted")
	}
	if _, err := deriveKAUSF(ck, ik[:1], "snn", make([]byte, 6)); err == nil {
		t.Fatal("short IK accepted")
	}
	if _, err := deriveKAUSF(ck, ik, "snn", make([]byte, 5)); err == nil {
		t.Fatal("short SQN^AK accepted")
	}
	if err := KAUSFInto(make([]byte, KeyLen128), ck, ik, "snn", make([]byte, 6)); err == nil {
		t.Fatal("short K_AUSF dst accepted")
	}
}

func TestResStarLengthAndSensitivity(t *testing.T) {
	ck, ik := validCKIK()
	rand := bytes.Repeat([]byte{0xaa}, 16)
	res := bytes.Repeat([]byte{0xbb}, 8)
	a, err := deriveResStar(ck, ik, "snn", rand, res)
	if err != nil {
		t.Fatalf("ResStarInto: %v", err)
	}
	if len(a) != KeyLen128 {
		t.Fatalf("RES* length = %d, want %d", len(a), KeyLen128)
	}
	res[7] ^= 1
	b, err := deriveResStar(ck, ik, "snn", rand, res)
	if err != nil {
		t.Fatalf("ResStarInto: %v", err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("RES* insensitive to RES")
	}
}

func TestResStarIsLow128BitsOfKDF(t *testing.T) {
	ck, ik := validCKIK()
	rand := make([]byte, 16)
	res := make([]byte, 8)
	key := append(append([]byte{}, ck...), ik...)
	full := Generic(key, 0x6B, []byte("snn"), rand, res)
	got, err := deriveResStar(ck, ik, "snn", rand, res)
	if err != nil {
		t.Fatalf("ResStarInto: %v", err)
	}
	if !bytes.Equal(got, full[16:]) {
		t.Fatal("RES* is not the low 128 bits of the KDF output")
	}
}

func TestResStarBadLengths(t *testing.T) {
	ck, ik := validCKIK()
	if _, err := deriveResStar(ck, ik, "snn", make([]byte, 15), make([]byte, 8)); err == nil {
		t.Fatal("short RAND accepted")
	}
	if _, err := deriveResStar(ck, ik, "snn", make([]byte, 16), make([]byte, 16)); err == nil {
		t.Fatal("long RES accepted")
	}
	if _, err := deriveResStar(ck[:2], ik, "snn", make([]byte, 16), make([]byte, 8)); err == nil {
		t.Fatal("short CK accepted")
	}
	if err := ResStarInto(make([]byte, KeyLen256), ck, ik, "snn", make([]byte, 16), make([]byte, 8)); err == nil {
		t.Fatal("full-width RES* dst accepted")
	}
}

func TestHXResStar(t *testing.T) {
	rand := bytes.Repeat([]byte{0x01}, 16)
	xres := bytes.Repeat([]byte{0x02}, 16)
	got, err := deriveHXResStar(rand, xres)
	if err != nil {
		t.Fatalf("HXResStarInto: %v", err)
	}
	h := sha256.Sum256(append(append([]byte{}, rand...), xres...))
	if !bytes.Equal(got, h[:16]) {
		t.Fatal("HXRES* is not the high 128 bits of SHA-256(RAND||XRES*)")
	}
	if _, err := deriveHXResStar(rand[:1], xres); err == nil {
		t.Fatal("short RAND accepted")
	}
	if _, err := deriveHXResStar(rand, xres[:8]); err == nil {
		t.Fatal("short XRES* accepted")
	}
	if err := HXResStarInto(make([]byte, sha256.Size), rand, xres); err == nil {
		t.Fatal("full-digest dst accepted")
	}
}

func TestKSEAFAndKAMFChain(t *testing.T) {
	kausf := bytes.Repeat([]byte{0x7a}, 32)
	kseaf, err := deriveKSEAF(kausf, "5G:mnc001.mcc001.3gppnetwork.org")
	if err != nil {
		t.Fatalf("KSEAFInto: %v", err)
	}
	if len(kseaf) != KeyLen256 {
		t.Fatalf("K_SEAF length = %d", len(kseaf))
	}
	kamf, err := deriveKAMF(kseaf, "imsi-001010000000001", []byte{0x00, 0x00})
	if err != nil {
		t.Fatalf("KAMFInto: %v", err)
	}
	if len(kamf) != KeyLen256 {
		t.Fatalf("K_AMF length = %d", len(kamf))
	}
	// Different SUPI must give a different K_AMF.
	kamf2, err := deriveKAMF(kseaf, "imsi-001010000000002", []byte{0x00, 0x00})
	if err != nil {
		t.Fatalf("KAMFInto: %v", err)
	}
	if bytes.Equal(kamf, kamf2) {
		t.Fatal("K_AMF ignores SUPI")
	}
}

func TestKAMFDefaultABBA(t *testing.T) {
	kseaf := make([]byte, 32)
	a, err := deriveKAMF(kseaf, "supi", nil)
	if err != nil {
		t.Fatalf("KAMFInto: %v", err)
	}
	b, err := deriveKAMF(kseaf, "supi", []byte{0x00, 0x00})
	if err != nil {
		t.Fatalf("KAMFInto: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("nil ABBA does not default to 0x0000")
	}
}

func TestKeyChainBadLengths(t *testing.T) {
	if _, err := deriveKSEAF(make([]byte, 31), "snn"); err == nil {
		t.Fatal("short K_AUSF accepted")
	}
	if _, err := deriveKAMF(make([]byte, 33), "supi", nil); err == nil {
		t.Fatal("long K_SEAF accepted")
	}
	if _, err := deriveAlgorithmKey(make([]byte, 16), AlgoNASEncryption, 1); err == nil {
		t.Fatal("short K_AMF accepted")
	}
	// A destination of the wrong size is refused, never truncated into.
	good := make([]byte, KeyLen256)
	short := make([]byte, KeyLen128)
	if err := KSEAFInto(short, good, "snn"); err == nil {
		t.Fatal("short K_SEAF dst accepted")
	}
	if err := KAMFInto(short, good, "supi", nil); err == nil {
		t.Fatal("short K_AMF dst accepted")
	}
	if err := AlgorithmKeyInto(good, good, AlgoNASEncryption, 1); err == nil {
		t.Fatal("long algorithm key dst accepted")
	}
}

func TestAlgorithmKeySeparation(t *testing.T) {
	kamf := bytes.Repeat([]byte{0x3c}, 32)
	enc, err := deriveAlgorithmKey(kamf, AlgoNASEncryption, 1)
	if err != nil {
		t.Fatalf("AlgorithmKeyInto: %v", err)
	}
	integ, err := deriveAlgorithmKey(kamf, AlgoNASIntegrity, 1)
	if err != nil {
		t.Fatalf("AlgorithmKeyInto: %v", err)
	}
	if len(enc) != KeyLen128 || len(integ) != KeyLen128 {
		t.Fatal("NAS key lengths wrong")
	}
	if bytes.Equal(enc, integ) {
		t.Fatal("encryption and integrity keys identical")
	}
}

func TestServingNetworkName(t *testing.T) {
	tests := []struct {
		mcc, mnc, want string
	}{
		{"001", "01", "5G:mnc001.mcc001.3gppnetwork.org"},
		{"234", "015", "5G:mnc015.mcc234.3gppnetwork.org"},
		{"310", "410", "5G:mnc410.mcc310.3gppnetwork.org"},
	}
	for _, tt := range tests {
		if got := ServingNetworkName(tt.mcc, tt.mnc); got != tt.want {
			t.Errorf("ServingNetworkName(%q, %q) = %q, want %q", tt.mcc, tt.mnc, got, tt.want)
		}
	}
}

func TestXorSQNAKInvolution(t *testing.T) {
	f := func(sqn, ak [6]byte) bool {
		x, err := XorSQNAK(sqn[:], ak[:])
		if err != nil {
			return false
		}
		back, err := XorSQNAK(x, ak[:])
		if err != nil {
			return false
		}
		return bytes.Equal(back, sqn[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := XorSQNAK(make([]byte, 5), make([]byte, 6)); err == nil {
		t.Fatal("short SQN accepted")
	}
}

func TestAUTNRoundTrip(t *testing.T) {
	f := func(sqnAK [6]byte, amf [2]byte, mac [8]byte) bool {
		autn := append(append(append([]byte{}, sqnAK[:]...), amf[:]...), mac[:]...)
		s, a, m, err := SplitAUTN(autn)
		if err != nil {
			return false
		}
		return bytes.Equal(s, sqnAK[:]) && bytes.Equal(a, amf[:]) && bytes.Equal(m, mac[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAUTNBadLengths(t *testing.T) {
	if _, _, _, err := SplitAUTN(make([]byte, 15)); err == nil {
		t.Fatal("short AUTN accepted")
	}
	if _, _, _, err := SplitAUTN(make([]byte, 17)); err == nil {
		t.Fatal("long AUTN accepted")
	}
}

// Property: the full derivation chain is a function of its inputs only —
// identical inputs give identical K_AMF across independent runs.
func TestChainDeterminism(t *testing.T) {
	f := func(ck, ik [16]byte, sqnAK [6]byte, rnd [16]byte) bool {
		derive := func() []byte {
			kausf, err := deriveKAUSF(ck[:], ik[:], "snn", sqnAK[:])
			if err != nil {
				return nil
			}
			kseaf, err := deriveKSEAF(kausf, "snn")
			if err != nil {
				return nil
			}
			kamf, err := deriveKAMF(kseaf, "imsi-1", nil)
			if err != nil {
				return nil
			}
			return kamf
		}
		a, b := derive(), derive()
		return a != nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKeyHierarchy(b *testing.B) {
	ck, ik := validCKIK()
	sqnAK := make([]byte, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kausf, err := deriveKAUSF(ck, ik, "5G:mnc001.mcc001.3gppnetwork.org", sqnAK)
		if err != nil {
			b.Fatal(err)
		}
		kseaf, err := deriveKSEAF(kausf, "5G:mnc001.mcc001.3gppnetwork.org")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := deriveKAMF(kseaf, "imsi-001010000000001", nil); err != nil {
			b.Fatal(err)
		}
	}
}
