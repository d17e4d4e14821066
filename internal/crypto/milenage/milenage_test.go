package milenage

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// TS 35.207 §4.3 Test Set 1.
var testSet1 = struct {
	k, rand, sqn, amf, op, opc       string
	macA, macS, res, ck, ik, ak, akS string
}{
	k:    "465b5ce8b199b49faa5f0a2ee238a6bc",
	rand: "23553cbe9637a89d218ae64dae47bf35",
	sqn:  "ff9bb4d0b607",
	amf:  "b9b9",
	op:   "cdc202d5123e20f62b6d676ac72cb318",
	opc:  "cd63cb71954a9f4e48a5994e37a02baf",
	macA: "4a9ffac354dfafb3",
	macS: "01cfaf9ec4e871e9",
	res:  "a54211d5e3ba50bf",
	ck:   "b40ba9a3c58b2a05bbf0d987b21bf8cb",
	ik:   "f769bcd751044604127672711c6d3441",
	ak:   "aa689c648370",
	akS:  "451e8beca43b",
}

// f1 returns MAC-A from a fresh OUT1 block written by F1Into.
func f1(c *Cipher, rand, sqn, amf []byte) ([]byte, error) {
	out := make([]byte, 16)
	if err := c.F1Into(out, rand, sqn, amf); err != nil {
		return nil, err
	}
	return out[:MACLen], nil
}

// f2345 runs F2345Into over a fresh 48-byte backing.
func f2345(c *Cipher, rand []byte) (res, ck, ik, ak []byte, err error) {
	return c.F2345Into(make([]byte, 48), rand)
}

func newTestCipher(t *testing.T) *Cipher {
	t.Helper()
	c, err := New(mustHex(t, testSet1.k), mustHex(t, testSet1.opc))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestComputeOPcTestSet1(t *testing.T) {
	opc, err := ComputeOPc(mustHex(t, testSet1.k), mustHex(t, testSet1.op))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	if want := mustHex(t, testSet1.opc); !bytes.Equal(opc, want) {
		t.Fatalf("OPc = %x, want %x", opc, want)
	}
}

func TestF1TestSet1(t *testing.T) {
	c := newTestCipher(t)
	out1 := make([]byte, 16)
	if err := c.F1Into(out1, mustHex(t, testSet1.rand), mustHex(t, testSet1.sqn), mustHex(t, testSet1.amf)); err != nil {
		t.Fatalf("F1Into: %v", err)
	}
	if want := mustHex(t, testSet1.macA); !bytes.Equal(out1[:MACLen], want) {
		t.Fatalf("MAC-A = %x, want %x", out1[:MACLen], want)
	}
	if want := mustHex(t, testSet1.macS); !bytes.Equal(out1[MACLen:], want) {
		t.Fatalf("MAC-S = %x, want %x", out1[MACLen:], want)
	}
}

func TestF1StarTestSet1(t *testing.T) {
	c := newTestCipher(t)
	macS, err := c.F1Star(mustHex(t, testSet1.rand), mustHex(t, testSet1.sqn), mustHex(t, testSet1.amf))
	if err != nil {
		t.Fatalf("F1Star: %v", err)
	}
	if want := mustHex(t, testSet1.macS); !bytes.Equal(macS, want) {
		t.Fatalf("MAC-S = %x, want %x", macS, want)
	}
}

func TestF2345TestSet1(t *testing.T) {
	c := newTestCipher(t)
	out := make([]byte, 48)
	res, ck, ik, ak, err := c.F2345Into(out, mustHex(t, testSet1.rand))
	if err != nil {
		t.Fatalf("F2345Into: %v", err)
	}
	if want := mustHex(t, testSet1.res); !bytes.Equal(res, want) {
		t.Errorf("RES = %x, want %x", res, want)
	}
	if want := mustHex(t, testSet1.ck); !bytes.Equal(ck, want) {
		t.Errorf("CK = %x, want %x", ck, want)
	}
	if want := mustHex(t, testSet1.ik); !bytes.Equal(ik, want) {
		t.Errorf("IK = %x, want %x", ik, want)
	}
	if want := mustHex(t, testSet1.ak); !bytes.Equal(ak, want) {
		t.Errorf("AK = %x, want %x", ak, want)
	}
}

func TestF5StarTestSet1(t *testing.T) {
	c := newTestCipher(t)
	ak, err := c.F5Star(mustHex(t, testSet1.rand))
	if err != nil {
		t.Fatalf("F5Star: %v", err)
	}
	if want := mustHex(t, testSet1.akS); !bytes.Equal(ak, want) {
		t.Fatalf("AK* = %x, want %x", ak, want)
	}
}

// TestInitInPlace: a Cipher built in place on the stack computes Test Set
// 1, costs one allocation (the AES key schedule), and rebuilding it with
// another key replaces the schedule instead of mixing the two.
func TestInitInPlace(t *testing.T) {
	k, opc, rand := mustHex(t, testSet1.k), mustHex(t, testSet1.opc), mustHex(t, testSet1.rand)
	var c Cipher
	if err := c.Init(make([]byte, KeyLen), make([]byte, OPLen)); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if err := c.Init(k, opc); err != nil {
		t.Fatalf("Init: %v", err)
	}
	res, ck, _, _, err := f2345(&c, rand)
	if err != nil {
		t.Fatalf("F2345Into: %v", err)
	}
	if !bytes.Equal(res, mustHex(t, testSet1.res)) || !bytes.Equal(ck, mustHex(t, testSet1.ck)) {
		t.Fatalf("RES %x CK %x after re-Init, want Test Set 1", res, ck)
	}
	if n := testing.AllocsPerRun(100, func() {
		var c Cipher
		if err := c.Init(k, opc); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Init: %v allocs, want 1 (the key schedule)", n)
	}
	if err := c.Init(k[:15], opc); err == nil {
		t.Error("Init short key: want error")
	}
}

func TestBadLengths(t *testing.T) {
	good16 := make([]byte, 16)
	tests := []struct {
		name string
		fn   func() error
	}{
		{"short key", func() error { _, err := New(make([]byte, 15), good16); return err }},
		{"short opc", func() error { _, err := New(good16, make([]byte, 1)); return err }},
		{"opc short key", func() error { _, err := ComputeOPc(make([]byte, 3), good16); return err }},
		{"opc short op", func() error { _, err := ComputeOPc(good16, nil); return err }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.fn() == nil {
				t.Fatal("want error, got nil")
			}
		})
	}

	c := newTestCipher(t)
	if err := c.F1Into(good16, make([]byte, 8), make([]byte, 6), make([]byte, 2)); err == nil {
		t.Fatal("F1Into short RAND: want error")
	}
	if err := c.F1Into(good16, good16, make([]byte, 5), make([]byte, 2)); err == nil {
		t.Fatal("F1Into short SQN: want error")
	}
	if err := c.F1Into(good16, good16, make([]byte, 6), make([]byte, 3)); err == nil {
		t.Fatal("F1Into long AMF: want error")
	}
	if err := c.F1Into(make([]byte, 8), good16, make([]byte, 6), make([]byte, 2)); err == nil {
		t.Fatal("F1Into short OUT1: want error")
	}
	if _, _, _, _, err := c.F2345Into(make([]byte, 48), nil); err == nil {
		t.Fatal("F2345Into nil RAND: want error")
	}
	if _, _, _, _, err := c.F2345Into(make([]byte, 32), good16); err == nil {
		t.Fatal("F2345Into short backing: want error")
	}
	if _, err := c.F5Star(make([]byte, 17)); err == nil {
		t.Fatal("F5Star long RAND: want error")
	}
	if _, err := c.F1Star(nil, nil, nil); err == nil {
		t.Fatal("F1Star nil args: want error")
	}
}

func TestRotateIdentity(t *testing.T) {
	in := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	var out [16]byte
	rotateInto(&out, &in, 0)
	if out != in {
		t.Fatalf("rotate by 0 = %v", out)
	}
	rotateInto(&out, &in, 16)
	if out != in {
		t.Fatalf("rotate by len = %v", out)
	}
	rotateInto(&out, &in, 1)
	want := [16]byte{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1}
	if out != want {
		t.Fatalf("rotate by 1 = %v", out)
	}
}

// Property: MAC-A is deterministic and sensitive to every input.
func TestF1Properties(t *testing.T) {
	c := newTestCipher(t)
	f := func(rand [16]byte, sqn [6]byte, amf [2]byte) bool {
		a, err := f1(c, rand[:], sqn[:], amf[:])
		if err != nil {
			return false
		}
		b, err := f1(c, rand[:], sqn[:], amf[:])
		if err != nil {
			return false
		}
		if !bytes.Equal(a, b) {
			return false
		}
		// Flipping one SQN bit must change the MAC (with overwhelming
		// probability; a collision would indicate a broken PRF wiring).
		sqn[0] ^= 0x01
		d, err := f1(c, rand[:], sqn[:], amf[:])
		if err != nil {
			return false
		}
		return !bytes.Equal(a, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distinct subscriber keys produce distinct vectors for the same
// challenge, and output lengths always match the spec.
func TestF2345Properties(t *testing.T) {
	f := func(k1, k2 [16]byte, rand [16]byte) bool {
		if k1 == k2 {
			k2[0] ^= 0xff
		}
		// An all-zero OP: OPc = E_K(0).
		newCipher := func(k []byte) (*Cipher, error) {
			opc, err := ComputeOPc(k, make([]byte, OPLen))
			if err != nil {
				return nil, err
			}
			return New(k, opc)
		}
		c1, err := newCipher(k1[:])
		if err != nil {
			return false
		}
		c2, err := newCipher(k2[:])
		if err != nil {
			return false
		}
		r1, ck1, ik1, ak1, err := f2345(c1, rand[:])
		if err != nil {
			return false
		}
		r2, _, _, _, err := f2345(c2, rand[:])
		if err != nil {
			return false
		}
		if len(r1) != ResLen || len(ck1) != CKLen || len(ik1) != IKLen || len(ak1) != AKLen {
			return false
		}
		return !bytes.Equal(r1, r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: f1 and f1* never agree (they are disjoint halves of OUT1, and
// equality would require a 64-bit collision within one block).
func TestF1F1StarDisjoint(t *testing.T) {
	c := newTestCipher(t)
	f := func(rand [16]byte, sqn [6]byte, amf [2]byte) bool {
		a, err := f1(c, rand[:], sqn[:], amf[:])
		if err != nil {
			return false
		}
		s, err := c.F1Star(rand[:], sqn[:], amf[:])
		if err != nil {
			return false
		}
		return len(a) == MACLen && len(s) == MACLen && !bytes.Equal(a, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkF2345(b *testing.B) {
	c, err := New(mustHex(b, testSet1.k), mustHex(b, testSet1.opc))
	if err != nil {
		b.Fatal(err)
	}
	rand := mustHex(b, testSet1.rand)
	out := make([]byte, 48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := c.F2345Into(out, rand); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF1(b *testing.B) {
	c, err := New(mustHex(b, testSet1.k), mustHex(b, testSet1.opc))
	if err != nil {
		b.Fatal(err)
	}
	rand := mustHex(b, testSet1.rand)
	sqn := mustHex(b, testSet1.sqn)
	amf := mustHex(b, testSet1.amf)
	out := make([]byte, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.F1Into(out, rand, sqn, amf); err != nil {
			b.Fatal(err)
		}
	}
}
