package suci

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"shield5g/internal/sbi/codec"
)

func testKey(t testing.TB) *HomeNetworkKey {
	t.Helper()
	k, err := GenerateHomeNetworkKey(rand.Reader, 1)
	if err != nil {
		t.Fatalf("GenerateHomeNetworkKey: %v", err)
	}
	return k
}

var testSUPI = SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}

// valueOf is supi as the SBI carries it.
func valueOf(t testing.TB, supi SUPI) codec.SUPI {
	t.Helper()
	v, err := supi.Value()
	if err != nil {
		t.Fatalf("Value(%+v): %v", supi, err)
	}
	return v
}

func TestConcealDeconcealRoundTrip(t *testing.T) {
	k := testKey(t)
	suci, err := Conceal(rand.Reader, testSUPI, "0000", k.PublicKey(), k.ID)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	got, err := k.Deconceal(suci)
	if err != nil {
		t.Fatalf("Deconceal: %v", err)
	}
	if want := valueOf(t, testSUPI); got != want {
		t.Fatalf("round trip = %v, want %v", got, want)
	}
}

func TestConcealHidesMSIN(t *testing.T) {
	k := testKey(t)
	suci, err := Conceal(rand.Reader, testSUPI, "0000", k.PublicKey(), k.ID)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	if bytes.Contains(suci.SchemeOutput, []byte(testSUPI.MSIN)) {
		t.Fatal("scheme output contains plaintext MSIN")
	}
	if suci.MCC != testSUPI.MCC || suci.MNC != testSUPI.MNC {
		t.Fatal("home network identity must stay in clear text for routing")
	}
}

func TestConcealIsRandomized(t *testing.T) {
	k := testKey(t)
	a, err := Conceal(rand.Reader, testSUPI, "0000", k.PublicKey(), k.ID)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	b, err := Conceal(rand.Reader, testSUPI, "0000", k.PublicKey(), k.ID)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	if bytes.Equal(a.SchemeOutput, b.SchemeOutput) {
		t.Fatal("two concealments of the same SUPI are identical (linkable)")
	}
}

// TestConcealIsDeterministicUnderASeededReader feeds two Conceal
// sequences identical seeded readers: the SUCIs must match byte for byte,
// because Conceal reads exactly the ephemeral scalar from its reader and
// nothing else.
func TestConcealIsDeterministicUnderASeededReader(t *testing.T) {
	k := testKey(t)
	var seed [32]byte
	seed[0] = 7
	a, b := mrand.NewChaCha8(seed), mrand.NewChaCha8(seed)
	for i := range 64 {
		x, err := Conceal(a, testSUPI, "0000", k.PublicKey(), k.ID)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		y, err := Conceal(b, testSUPI, "0000", k.PublicKey(), k.ID)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		if !bytes.Equal(x.SchemeOutput, y.SchemeOutput) {
			t.Fatalf("draw %d: same reader state, different SUCIs\n%x\n%x", i, x.SchemeOutput, y.SchemeOutput)
		}
	}
}

// TestConcealAlternatingHomeKeys conceals to two home-network keys of the
// same key ID in turn, so each call replaces the parsed key Conceal
// caches: every SUCI must de-conceal under its own key and fail the MAC
// check under the other.
func TestConcealAlternatingHomeKeys(t *testing.T) {
	keys := [2]*HomeNetworkKey{testKey(t), testKey(t)}
	want := valueOf(t, testSUPI)
	for i := range 32 {
		own, other := keys[i%2], keys[1-i%2]
		s, err := Conceal(rand.Reader, testSUPI, "0000", own.PublicKey(), own.ID)
		if err != nil {
			t.Fatalf("round %d: Conceal: %v", i, err)
		}
		if got, err := own.Deconceal(s); err != nil || got != want {
			t.Fatalf("round %d: own key: %v, %v; want %v", i, got, err, want)
		}
		if _, err := other.Deconceal(s); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("round %d: other key: %v, want ErrIntegrity", i, err)
		}
	}
}

// TestConcealScrubsItsScratch pools a scratch full of non-zero bytes, runs
// Conceal, which takes that scratch from the pool, and checks that the
// pool hands it out next reading zero: neither the ephemeral scalar nor a
// derived key outlives the call in pooled memory.
func TestConcealScrubsItsScratch(t *testing.T) {
	k := testKey(t)
	// Taking a scratch first empties this P's private slot, so the dirty
	// one is the next the pool hands out.
	held := kdfScratchPool.Get()
	defer kdfScratchPool.Put(held)
	dirty := new(kdfScratch)
	for _, b := range [][]byte{dirty.scalar[:], dirty.out[:], dirty.ctr[:], dirty.tag[:]} {
		for i := range b {
			b[i] = 0xA5
		}
	}
	kdfScratchPool.Put(dirty)
	if _, err := Conceal(rand.Reader, testSUPI, "0000", k.PublicKey(), k.ID); err != nil {
		t.Fatal(err)
	}
	ks := kdfScratchPool.Get().(*kdfScratch)
	defer kdfScratchPool.Put(ks)
	if ks != dirty {
		// The pool dropped the dirty scratch (the race detector does that
		// at random), so nothing was checked.
		t.Skip("the pool did not hand the dirty scratch back")
	}
	if *ks != (kdfScratch{}) {
		t.Fatalf("pooled scratch after Conceal is not zero: %+v", *ks)
	}
}

func TestDeconcealTamperDetected(t *testing.T) {
	k := testKey(t)
	suci, err := Conceal(rand.Reader, testSUPI, "0000", k.PublicKey(), k.ID)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	// Flip one ciphertext bit.
	suci.SchemeOutput[ephemeralKeyLen] ^= 0x01
	if _, err := k.Deconceal(suci); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered SUCI: err = %v, want ErrIntegrity", err)
	}
}

func TestDeconcealTamperedTag(t *testing.T) {
	k := testKey(t)
	suci, err := Conceal(rand.Reader, testSUPI, "0000", k.PublicKey(), k.ID)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	suci.SchemeOutput[len(suci.SchemeOutput)-1] ^= 0xff
	if _, err := k.Deconceal(suci); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered tag: err = %v, want ErrIntegrity", err)
	}
}

func TestDeconcealWrongKey(t *testing.T) {
	k1, k2 := testKey(t), testKey(t)
	k2.ID = k1.ID // same ID, different key material
	suci, err := Conceal(rand.Reader, testSUPI, "0000", k1.PublicKey(), k1.ID)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	if _, err := k2.Deconceal(suci); err == nil {
		t.Fatal("wrong home network key accepted")
	}
}

func TestDeconcealKeyIDMismatch(t *testing.T) {
	k := testKey(t)
	suci, err := Conceal(rand.Reader, testSUPI, "0000", k.PublicKey(), 9)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	if _, err := k.Deconceal(suci); err == nil {
		t.Fatal("key ID mismatch accepted")
	}
}

func TestDeconcealRejectsBadInputs(t *testing.T) {
	k := testKey(t)
	if _, err := k.Deconceal(nil); err == nil {
		t.Fatal("nil SUCI accepted")
	}
	if _, err := k.Deconceal(&SUCI{Scheme: SchemeNull, HomeKeyID: k.ID}); err == nil {
		t.Fatal("null scheme accepted by Profile A deconcealment")
	}
	if _, err := k.Deconceal(&SUCI{Scheme: SchemeProfileA, HomeKeyID: k.ID, SchemeOutput: make([]byte, 10)}); err == nil {
		t.Fatal("truncated scheme output accepted")
	}
}

func TestSUPIValidate(t *testing.T) {
	tests := []struct {
		name string
		supi SUPI
		ok   bool
	}{
		{"valid 2-digit MNC", SUPI{"001", "01", "0000000001"}, true},
		{"valid 3-digit MNC", SUPI{"310", "410", "123456789"}, true},
		{"short MCC", SUPI{"01", "01", "0000000001"}, false},
		{"alpha MCC", SUPI{"0a1", "01", "0000000001"}, false},
		{"long MNC", SUPI{"001", "0123", "0000000001"}, false},
		{"short MSIN", SUPI{"001", "01", "1234"}, false},
		{"long MSIN", SUPI{"001", "01", "12345678901"}, false},
		{"empty MNC", SUPI{"001", "", "123456789"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.supi.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestSUPIString(t *testing.T) {
	if got := testSUPI.String(); got != "imsi-001010000000001" {
		t.Fatalf("String = %q", got)
	}
}

func TestSUCIString(t *testing.T) {
	s := &SUCI{MCC: "001", MNC: "01", RoutingIndicator: "0000", Scheme: SchemeProfileA, HomeKeyID: 1, SchemeOutput: []byte{0xab}}
	got := s.String()
	if !strings.HasPrefix(got, "suci-0-001-01-0000-1-1-ab") {
		t.Fatalf("String = %q", got)
	}
}

func TestConcealValidation(t *testing.T) {
	k := testKey(t)
	if _, err := Conceal(rand.Reader, SUPI{"1", "01", "123456789"}, "0000", k.PublicKey(), 1); err == nil {
		t.Fatal("invalid SUPI accepted")
	}
	if _, err := Conceal(rand.Reader, testSUPI, "0000", make([]byte, 31), 1); err == nil {
		t.Fatal("short public key accepted")
	}
}

func TestHomeNetworkKeySerialization(t *testing.T) {
	k := testKey(t)
	k2, err := HomeNetworkKeyFromBytes(k.Bytes(), k.ID)
	if err != nil {
		t.Fatalf("HomeNetworkKeyFromBytes: %v", err)
	}
	if !bytes.Equal(k.PublicKey(), k2.PublicKey()) {
		t.Fatal("restored key has different public key")
	}
	suci, err := Conceal(rand.Reader, testSUPI, "0000", k.PublicKey(), k.ID)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	if _, err := k2.Deconceal(suci); err != nil {
		t.Fatalf("restored key failed to deconceal: %v", err)
	}
	if _, err := HomeNetworkKeyFromBytes(make([]byte, 16), 1); err == nil {
		t.Fatal("short private scalar accepted")
	}
}

// Property: round trip holds for arbitrary valid MSINs.
func TestRoundTripProperty(t *testing.T) {
	k := testKey(t)
	f := func(n uint64, riSeed uint8) bool {
		msin := padDigits(n, 10)
		supi := SUPI{MCC: "001", MNC: "01", MSIN: msin}
		ri := padDigits(uint64(riSeed), 4)
		suci, err := Conceal(rand.Reader, supi, ri, k.PublicKey(), k.ID)
		if err != nil {
			return false
		}
		got, err := k.Deconceal(suci)
		if err != nil {
			return false
		}
		return got == valueOf(t, supi) && suci.RoutingIndicator == ri
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func padDigits(n uint64, width int) string {
	s := make([]byte, width)
	for i := width - 1; i >= 0; i-- {
		s[i] = byte('0' + n%10)
		n /= 10
	}
	return string(s)
}

func TestDeriveKeysDeterministicAndDistinct(t *testing.T) {
	shared := bytes.Repeat([]byte{0x42}, 32)
	pub := bytes.Repeat([]byte{0x24}, 32)
	var s1, s2 kdfScratch
	// deriveKeys clears the secret it consumes, so each call gets a copy.
	e1, i1, m1 := deriveKeys(bytes.Clone(shared), pub, &s1)
	e2, i2, m2 := deriveKeys(bytes.Clone(shared), pub, &s2)
	if !bytes.Equal(e1, e2) || !bytes.Equal(i1, i2) || !bytes.Equal(m1, m2) {
		t.Fatal("deriveKeys not deterministic")
	}
	if len(e1) != encKeyLen || len(i1) != icbLen || len(m1) != macKeyLen {
		t.Fatal("derived key lengths wrong")
	}
	if bytes.Equal(e1, i1[:encKeyLen]) {
		t.Fatal("enc key equals ICB prefix")
	}
}

// TestDeriveKeysClearsTheSharedSecret: the X25519 secret ecdh's ECDH
// returns is a fresh slice nothing else clears, so the KDF zeroes it once
// it has read it, and it never lingers in freed heap.
func TestDeriveKeysClearsTheSharedSecret(t *testing.T) {
	shared := bytes.Repeat([]byte{0x42}, 32)
	var ks kdfScratch
	deriveKeys(shared, bytes.Repeat([]byte{0x24}, 32), &ks)
	if !bytes.Equal(shared, make([]byte, 32)) {
		t.Fatalf("shared secret after the KDF = %x, want all zero", shared)
	}
}

func BenchmarkConceal(b *testing.B) {
	k := testKey(b)
	pub := k.PublicKey()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Conceal(rand.Reader, testSUPI, "0000", pub, k.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeconceal(b *testing.B) {
	k := testKey(b)
	suci, err := Conceal(rand.Reader, testSUPI, "0000", k.PublicKey(), k.ID)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := k.Deconceal(suci); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNullScheme(t *testing.T) {
	sc, err := ConcealNull(testSUPI, "0000")
	if err != nil {
		t.Fatalf("ConcealNull: %v", err)
	}
	if sc.Scheme != SchemeNull {
		t.Fatalf("scheme = %d", sc.Scheme)
	}
	// The null scheme exposes the MSIN on the wire — the privacy gap it
	// is documented to have.
	if !bytes.Contains(sc.SchemeOutput, []byte(testSUPI.MSIN)) {
		t.Fatal("null scheme did not carry plaintext MSIN")
	}
	got, err := sc.NullSUPI()
	if err != nil {
		t.Fatalf("NullSUPI: %v", err)
	}
	if got != valueOf(t, testSUPI) {
		t.Fatalf("NullSUPI = %v", got)
	}
	if _, err := ConcealNull(SUPI{MCC: "1"}, "0000"); err == nil {
		t.Fatal("invalid SUPI accepted")
	}
	profileA := &SUCI{Scheme: SchemeProfileA}
	if _, err := profileA.NullSUPI(); err == nil {
		t.Fatal("NullSUPI on profile A accepted")
	}
	bad := &SUCI{MCC: "001", MNC: "01", Scheme: SchemeNull, SchemeOutput: []byte("xx")}
	if _, err := bad.NullSUPI(); err == nil {
		t.Fatal("malformed null MSIN accepted")
	}
}

// TestPooledPrimitivesMatchReference pins the pooled KDF/MAC/CTR paths to
// plain-stdlib reference implementations mirroring the seed code.
func TestPooledPrimitivesMatchReference(t *testing.T) {
	shared := bytes.Repeat([]byte{0x42}, 32)
	pub := bytes.Repeat([]byte{0x24}, 32)

	refDerive := func() []byte {
		const total = encKeyLen + icbLen + macKeyLen
		out := make([]byte, 0, total)
		var counter uint32 = 1
		for len(out) < total {
			h := sha256.New()
			h.Write(shared)
			var c [4]byte
			binary.BigEndian.PutUint32(c[:], counter)
			h.Write(c[:])
			h.Write(pub)
			out = h.Sum(out)
			counter++
		}
		return out
	}()

	var ks kdfScratch
	encKey, icb, macKey := deriveKeys(shared, pub, &ks)
	got := append(append(append([]byte(nil), encKey...), icb...), macKey...)
	if !bytes.Equal(got, refDerive) {
		t.Fatalf("pooled deriveKeys diverges from reference\n got %x\nwant %x", got, refDerive)
	}

	msg := []byte("0000000001")
	var tag [sha256.Size]byte
	computeTagInto(macKey, msg, &tag)
	ref := hmac.New(sha256.New, macKey)
	ref.Write(msg)
	if want := ref.Sum(nil); !bytes.Equal(tag[:], want) {
		t.Fatalf("computeTagInto diverges from crypto/hmac")
	}

	// The manual CTR loop must match a stdlib cipher.NewCTR stream, on a
	// first pass and again through the recycled (scrubbed) scratch.
	for round := 0; round < 2; round++ {
		dst := make([]byte, len(msg))
		ctr(encKey, icb, dst, msg)
		block, err := aes.NewCipher(encKey)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(msg))
		cipher.NewCTR(block, icb).XORKeyStream(want, msg)
		if !bytes.Equal(dst, want) {
			t.Fatalf("round %d: manual CTR diverges from cipher.NewCTR", round)
		}
	}
}

// HomeNetworkKeyFromBytes reconstructs a key pair from a 32-byte private
// scalar: Bytes' inverse, and the fixed key of FuzzDeconceal's corpus.
func HomeNetworkKeyFromBytes(raw []byte, id byte) (*HomeNetworkKey, error) {
	priv, err := ecdh.X25519().NewPrivateKey(raw)
	if err != nil {
		return nil, fmt.Errorf("suci: load home network key: %w", err)
	}
	return &HomeNetworkKey{ID: id, priv: priv}, nil
}
