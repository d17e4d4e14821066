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
// trust-domain filter to the binding; afterwards the NRF (via the
// topo.Builder) only ever influences WHICH shard a SUPI routes to, never
// how a shard reaches its own members — so a dead NRF cannot take
// registration down.
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

// buildShard constructs vertical replica r: its P-AKA module set (or
// monolithic environments), then its UDM, AUSF and AMF, each bound to the
// shard's own peer.
func (s *Slice) buildShard(ctx context.Context, r int, signKey ed25519.PrivateKey) (*CoreShard, error) {
	cfg := s.Config
	hmee := cfg.Isolation == paka.SGX || cfg.Isolation == paka.SEV
	amfService := sbi.ReplicaName(amf.ServiceName, r)
	shard := &CoreShard{
		Index:       r,
		Name:        fmt.Sprintf("shard-%d", r),
		UDMService:  sbi.ReplicaName(udm.ServiceName, r),
		AUSFService: sbi.ReplicaName(ausf.ServiceName, r),
	}

	var udmFns paka.UDMFunctions
	var ausfFns paka.AUSFFunctions
	var amfFns paka.AMFFunctions
	if cfg.Isolation == paka.Monolithic {
		shard.MonoUDM = paka.NewMonolithicUDM(s.Env)
		udmFns = shard.MonoUDM
		kdf := paka.NewMonolithicKDF(s.Env)
		ausfFns, amfFns = kdf, kdf
	} else {
		shard.Modules = make(map[paka.ModuleKind]*paka.Module)
		for _, kind := range paka.Kinds() {
			m, err := paka.New(ctx, s.moduleConfig(kind, r, signKey))
			if err != nil {
				return nil, fmt.Errorf("deploy: %s module (shard %d): %w", kind, r, err)
			}
			shard.Modules[kind] = m
		}
		shard.RemoteUDM = paka.NewRemote(s.buildInvoker(shard.UDMService), s.Env, shard.Modules[paka.EUDM].ServiceName())
		shard.RemoteAUSF = paka.NewRemote(s.buildInvoker(shard.AUSFService), s.Env, shard.Modules[paka.EAUSF].ServiceName())
		shard.RemoteAMF = paka.NewRemote(s.buildInvoker(amfService), s.Env, shard.Modules[paka.EAMF].ServiceName())
		udmFns, ausfFns, amfFns = shard.RemoteUDM, shard.RemoteAUSF, shard.RemoteAMF
	}

	var err error
	if shard.UDM, err = udm.New(ctx, udm.Config{
		Env: s.Env, Registry: s.Registry, Invoker: s.buildInvoker(shard.UDMService),
		Functions: udmFns, HomeNetworkKey: s.HomeNetworkKey, HMEE: hmee,
		Reprovision: reprovisionHook(shard.Modules[paka.EUDM]),
		AVPoolDepth: cfg.AVPoolDepth, Replica: r,
	}); err != nil {
		return nil, fmt.Errorf("deploy: UDM (shard %d): %w", r, err)
	}

	if shard.AUSF, err = ausf.New(ctx, ausf.Config{
		Env: s.Env, Registry: s.Registry, Invoker: s.buildInvoker(shard.AUSFService),
		Functions: ausfFns, HMEE: hmee, Replica: r,
	}); err != nil {
		return nil, fmt.Errorf("deploy: AUSF (shard %d): %w", r, err)
	}

	// Each shard gets its OWN token buckets: a tenant's storm drains only
	// the buckets of the shards its shuffle shard routes to.
	shard.Admission = newAdmission(cfg, s.Env)

	if shard.AMF, err = amf.New(ctx, amf.Config{
		Env: s.Env, Registry: s.Registry, Invoker: s.buildInvoker(amfService),
		Functions: amfFns, MCC: cfg.MCC, MNC: cfg.MNC, HMEE: hmee,
		Admission: shard.Admission, Replica: r,
	}); err != nil {
		return nil, fmt.Errorf("deploy: AMF (shard %d): %w", r, err)
	}
	return shard, nil
}
