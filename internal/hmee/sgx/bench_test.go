package sgx

import (
	"context"
	"testing"
)

func benchEnclave(b *testing.B) *Enclave {
	b.Helper()
	p, err := NewPlatform(PlatformConfig{Seed: 1})
	if err != nil {
		b.Fatalf("NewPlatform: %v", err)
	}
	e, err := p.Build(context.Background(), EnclaveConfig{
		Name: "bench", SizeBytes: 512 << 20, MaxThreads: 8, Preheat: true,
	})
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	b.Cleanup(e.Destroy)
	return e
}

func BenchmarkECallRoundTrip(b *testing.B) {
	e := benchEnclave(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.ECall(ctx, 64, 64, func(th *Thread) error {
			th.Compute(10_000)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOCallAccounting(b *testing.B) {
	e := benchEnclave(b)
	th, err := e.EnterResident(context.Background())
	if err != nil {
		b.Fatalf("EnterResident: %v", err)
	}
	defer e.LeaveResident(th)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.OCallN(1, 1400, 64, 64)
	}
}

func BenchmarkSealUnseal(b *testing.B) {
	e := benchEnclave(b)
	secret := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob, err := e.Seal(secret, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Unseal(blob, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateVerifyQuote(b *testing.B) {
	p, err := NewPlatform(PlatformConfig{Seed: 1})
	if err != nil {
		b.Fatalf("NewPlatform: %v", err)
	}
	e, err := p.Build(context.Background(), EnclaveConfig{Name: "q", SizeBytes: 1 << 20, MaxThreads: 4})
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	defer e.Destroy()
	var data [64]byte
	m := e.measurement
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := e.GenerateQuote(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := q.Verify(p.QuotingPublicKey(), m, data); err != nil {
			b.Fatal(err)
		}
	}
}
