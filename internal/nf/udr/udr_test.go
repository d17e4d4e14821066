package udr

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"testing/quick"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

func harness(t *testing.T) (*UDR, *Client) {
	t.Helper()
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	u, err := New(env, reg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return u, NewClient(sbi.NewClient("test", env, reg))
}

// id parses a test SUPI, which must be well formed.
func id(text string) codec.SUPI {
	supi, err := codec.ParseSUPI(text)
	if err != nil {
		panic(err)
	}
	return supi
}

// unknown is a well-formed IMSI no test provisions.
const unknown = "imsi-999990000000001"

func validSubscriber(supi string) Subscriber {
	return Subscriber{
		SUPI:     id(supi),
		K:        bytes.Repeat([]byte{0x11}, 16),
		OPc:      bytes.Repeat([]byte{0x22}, 16),
		SQN:      []byte{0, 0, 0, 0, 0, 0},
		AMFField: []byte{0x80, 0x00},
	}
}

func TestProvisionAndGet(t *testing.T) {
	u, c := harness(t)
	ctx := context.Background()
	if err := c.Provision(ctx, validSubscriber("imsi-1")); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if u.SubscriberCount() != 1 {
		t.Fatalf("SubscriberCount = %d", u.SubscriberCount())
	}
	got, err := c.Get(ctx, id("imsi-1"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.SUPI != id("imsi-1") || !bytes.Equal(got.K, bytes.Repeat([]byte{0x11}, 16)) {
		t.Fatalf("Get = %+v", got)
	}
}

func TestProvisionValidation(t *testing.T) {
	_, c := harness(t)
	ctx := context.Background()
	cases := map[string]func(*Subscriber){
		"empty SUPI": func(s *Subscriber) { s.SUPI = codec.SUPI{} },
		"short K":    func(s *Subscriber) { s.K = s.K[:8] },
		"short OPc":  func(s *Subscriber) { s.OPc = nil },
		"short SQN":  func(s *Subscriber) { s.SQN = s.SQN[:3] },
		"long AMF":   func(s *Subscriber) { s.AMFField = []byte{1, 2, 3} },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			s := validSubscriber("imsi-001010000000099")
			mutate(&s)
			err := c.Provision(ctx, s)
			var pd *sbi.ProblemDetails
			if !errors.As(err, &pd) || pd.Status != 400 {
				t.Fatalf("err = %v, want 400", err)
			}
		})
	}
}

func TestNextAuthAdvancesSQN(t *testing.T) {
	_, c := harness(t)
	ctx := context.Background()
	if err := c.Provision(ctx, validSubscriber("imsi-1")); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	a, err := c.NextAuth(ctx, "imsi-1")
	if err != nil {
		t.Fatalf("NextAuth: %v", err)
	}
	b, err := c.NextAuth(ctx, "imsi-1")
	if err != nil {
		t.Fatalf("NextAuth: %v", err)
	}
	if bytes.Equal(a.SQN, b.SQN) {
		t.Fatal("consecutive vectors share an SQN")
	}
	if sqnValue(b.SQN) != sqnValue(a.SQN)+sqnStep {
		t.Fatalf("SQN step = %d, want %d", sqnValue(b.SQN)-sqnValue(a.SQN), sqnStep)
	}
	if len(a.OPc) != 16 || len(a.AMFField) != 2 {
		t.Fatal("auth material sizes wrong")
	}
}

func TestNextAuthUnknownSubscriber(t *testing.T) {
	_, c := harness(t)
	_, err := c.NextAuth(context.Background(), unknown)
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 404 {
		t.Fatalf("err = %v, want 404", err)
	}
	// A malformed SUPI is refused before any request is posted.
	if _, err := c.NextAuth(context.Background(), "imsi-ghost"); !errors.Is(err, codec.ErrIdentity) {
		t.Fatalf("malformed SUPI err = %v, want codec.ErrIdentity", err)
	}
}

func TestResyncRebasesAboveUESQN(t *testing.T) {
	_, c := harness(t)
	ctx := context.Background()
	if err := c.Provision(ctx, validSubscriber("imsi-1")); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	ueSQN := []byte{0, 0, 0, 1, 0, 0}
	if err := c.Resync(ctx, id("imsi-1"), ueSQN); err != nil {
		t.Fatalf("Resync: %v", err)
	}
	next, err := c.NextAuth(ctx, "imsi-1")
	if err != nil {
		t.Fatalf("NextAuth: %v", err)
	}
	if sqnValue(next.SQN) <= sqnValue(ueSQN) {
		t.Fatalf("post-resync SQN %d not above UE SQN %d", sqnValue(next.SQN), sqnValue(ueSQN))
	}
	if err := c.Resync(ctx, id("imsi-1"), []byte{1, 2}); err == nil {
		t.Fatal("short SQN_MS accepted")
	}
	if err := c.Resync(ctx, id(unknown), ueSQN); err == nil {
		t.Fatal("unknown subscriber resync accepted")
	}
}

// TestNextAuthBatchZeroCountReadsWithoutAdvancing: a zero-count batch is
// the resync path's OPc read — the shared material, no sequence number,
// and the counter left where it was — in either wire format.
func TestNextAuthBatchZeroCountReadsWithoutAdvancing(t *testing.T) {
	for _, binary := range []bool{false, true} {
		env := costmodel.NewEnv(nil, 1)
		reg := sbi.NewRegistry()
		if _, err := New(env, reg); err != nil {
			t.Fatalf("New: %v", err)
		}
		client := sbi.NewClient("test", env, reg)
		if binary {
			client.EnableBinary()
		}
		c := NewClient(client)
		ctx := context.Background()
		sub := validSubscriber("imsi-1")
		if err := c.Provision(ctx, sub); err != nil {
			t.Fatalf("Provision: %v", err)
		}
		for range 2 { // the second read is a binary client's first frame
			read, err := c.NextAuthBatch(ctx, id("imsi-1"), 0)
			if err != nil {
				t.Fatalf("binary=%v: NextAuthBatch(0): %v", binary, err)
			}
			if !bytes.Equal(read.OPc, sub.OPc) || !bytes.Equal(read.AMFField, sub.AMFField) || read.Vectors() != 0 {
				t.Fatalf("binary=%v: NextAuthBatch(0) = %+v", binary, read)
			}
		}
		next, err := c.NextAuth(ctx, "imsi-1")
		if err != nil {
			t.Fatalf("NextAuth: %v", err)
		}
		if got := sqnValue(next.SQN); got != sqnStep {
			t.Fatalf("binary=%v: first SQN after two zero-count reads = %d, want %d", binary, got, sqnStep)
		}
		if _, err := c.NextAuthBatch(ctx, id(unknown), 0); !sbi.HasCause(err, "USER_NOT_FOUND") {
			t.Fatalf("binary=%v: unknown subscriber err = %v, want USER_NOT_FOUND", binary, err)
		}
	}
}

func TestGetReturnsCopies(t *testing.T) {
	_, c := harness(t)
	ctx := context.Background()
	if err := c.Provision(ctx, validSubscriber("imsi-1")); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	a, err := c.Get(ctx, id("imsi-1"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	a.K[0] = 0xFF
	b, err := c.Get(ctx, id("imsi-1"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if b.K[0] == 0xFF {
		t.Fatal("Get returned aliased storage")
	}
	if _, err := c.Get(ctx, id(unknown)); err == nil {
		t.Fatal("unknown Get accepted")
	}
}

func TestAdvanceSQNWraps(t *testing.T) {
	sqn := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	advanceSQN(sqn, 1)
	if sqnValue(sqn) != 0 {
		t.Fatalf("wrap = %d, want 0", sqnValue(sqn))
	}
}

// Property: advanceSQN is addition modulo 2^48.
func TestAdvanceSQNProperty(t *testing.T) {
	f := func(start uint64, step uint16) bool {
		start &= 0xFFFFFFFFFFFF
		sqn := make([]byte, 6)
		for i := 0; i < 6; i++ {
			sqn[5-i] = byte(start >> (8 * i))
		}
		advanceSQN(sqn, uint64(step))
		return sqnValue(sqn) == (start+uint64(step))&0xFFFFFFFFFFFF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sqnValue(sqn []byte) uint64 {
	var v uint64
	for _, b := range sqn {
		v = v<<8 | uint64(b)
	}
	return v
}
