// Shard construction: a slice is N vertical replicas (AMF -> AUSF -> UDM ->
// P-AKA modules each) behind SUPI-affinity rendezvous routing at the gNB.
// The NRF, UDR, SMF and UPF stay shared — only the authentication chain is
// replicated, because it is the chain the paper shields and the chain a
// signaling storm saturates.
//
// Shard r's AMF calls shard r's AUSF calls shard r's UDM calls shard r's
// eUDM, each by its shard's service name: every NF takes its replica index
// and derives its own name and its peer's from sbi.ReplicaName. The AUSF
// and AMF resolve that name through the NRF once, at construction, which applies the
// trust-domain filter to the binding; afterwards the NRF takes no part in
// serving. Which shard a SUPI routes to is the slice's own topology
// snapshot (Slice.route), and how a shard reaches its own members is
// fixed at construction — so a dead NRF cannot take registration down.
package deploy

import (
	"context"
	"crypto/ed25519"
	"fmt"

	"shield5g/internal/nf/amf"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/udm"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
)

// buildShard constructs vertical replica r: its P-AKA module set, then its
// UDM, AUSF and AMF, each bound to the shard's own peer. Each VNF has one
// SBI client stack, which carries both its NF traffic and its calls to its
// module.
func (s *Slice) buildShard(ctx context.Context, r int, signKey ed25519.PrivateKey) (*CoreShard, error) {
	cfg := s.Config
	hmee := cfg.Isolation == paka.SGX || cfg.Isolation == paka.SEV
	amfService := sbi.ReplicaName(amf.ServiceName, r)
	shard := &CoreShard{
		Index:       r,
		Name:        fmt.Sprintf("shard-%d", r),
		UDMService:  sbi.ReplicaName(udm.ServiceName, r),
		AUSFService: sbi.ReplicaName(ausf.ServiceName, r),
		Modules:     make(map[paka.ModuleKind]*paka.Module),
	}
	for _, kind := range paka.Kinds() {
		m, err := paka.New(ctx, s.moduleConfig(kind, r, signKey))
		if err != nil {
			return nil, fmt.Errorf("deploy: %s module (shard %d): %w", kind, r, err)
		}
		shard.Modules[kind] = m
	}
	udmInvoker := s.buildInvoker(shard.UDMService)
	ausfInvoker := s.buildInvoker(shard.AUSFService)
	amfInvoker := s.buildInvoker(amfService)
	shard.RemoteUDM = paka.NewRemote(udmInvoker, s.Env, shard.Modules[paka.EUDM].ServiceName())
	shard.RemoteAUSF = paka.NewRemote(ausfInvoker, s.Env, shard.Modules[paka.EAUSF].ServiceName())
	shard.RemoteAMF = paka.NewRemote(amfInvoker, s.Env, shard.Modules[paka.EAMF].ServiceName())

	var err error
	if shard.UDM, err = udm.New(ctx, udm.Config{
		Env: s.Env, Registry: s.Registry, Invoker: udmInvoker,
		Functions: shard.RemoteUDM, HomeNetworkKey: s.HomeNetworkKey, HMEE: hmee,
		Reprovision: s.reprovisionHook(shard),
		AVPoolDepth: cfg.AVPoolDepth, Replica: r,
	}); err != nil {
		return nil, fmt.Errorf("deploy: UDM (shard %d): %w", r, err)
	}

	if shard.AUSF, err = ausf.New(ctx, ausf.Config{
		Env: s.Env, Registry: s.Registry, Invoker: ausfInvoker,
		Functions: shard.RemoteAUSF, HMEE: hmee, Replica: r,
	}); err != nil {
		return nil, fmt.Errorf("deploy: AUSF (shard %d): %w", r, err)
	}

	// Each shard gets its OWN token buckets: a tenant's storm drains each
	// shard's buckets only by the arrivals routed there.
	shard.Admission = newAdmission(cfg, s.Env)

	if shard.AMF, err = amf.New(ctx, amf.Config{
		Invoker:   amfInvoker,
		Functions: shard.RemoteAMF, MCC: cfg.MCC, MNC: cfg.MNC, HMEE: hmee,
		Admission: shard.Admission, Replica: r,
	}); err != nil {
		return nil, fmt.Errorf("deploy: AMF (shard %d): %w", r, err)
	}
	return shard, nil
}
