// Sharded-core construction: N vertical replica slices (AMF -> AUSF ->
// UDM -> P-AKA modules each) behind SUPI-affinity consistent-hash routing
// at the gNB. The NRF, UDR, SMF and UPF stay shared — only the
// authentication chain is replicated, because it is the chain the paper
// shields and the chain a signaling storm saturates.
//
// Shard bindings are static: shard r's AMF calls shard r's AUSF calls
// shard r's UDM calls shard r's eUDM, all by configured service name.
// The NRF (via the topo.Builder) only ever influences WHICH shard a SUPI
// routes to, never how a shard reaches its own members — so a dead NRF
// cannot take registration down.
package deploy

import (
	"context"
	"crypto/ed25519"
	"fmt"

	"shield5g/internal/gnb"
	"shield5g/internal/nf/amf"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/nrf/topo"
	"shield5g/internal/nf/smf"
	"shield5g/internal/nf/udm"
	"shield5g/internal/nf/upf"
	"shield5g/internal/paka"
	"shield5g/internal/topology"
)

// shardSuffix names shard r's services: shard 0 keeps the base names
// ("udm", "ausf", "eudm-paka", ...) so tooling built for the singleton
// keeps working; replicas r >= 1 append "-r<N>".
func shardSuffix(r int) string {
	if r == 0 {
		return ""
	}
	return fmt.Sprintf("-r%d", r)
}

// newShardedSlice is the Replicas > 1 construction path of NewSlice. It
// mirrors the singleton path's order — shared infrastructure first, then
// each replica's module set and VNF chain, then the gNB — and finishes by
// standing up the topology control plane and publishing epoch 1.
func newShardedSlice(ctx context.Context, cfg SliceConfig) (*Slice, error) {
	s, err := newSliceBase(cfg)
	if err != nil {
		return nil, err
	}
	cfg, env := s.Config, s.Env

	// The rest of the shared control and user plane — one of each across
	// all shards, like the base's NRF and UDR.
	if s.UPF, err = upf.New(env, s.Registry); err != nil {
		return nil, fmt.Errorf("deploy: UPF: %w", err)
	}
	smfInvoker := s.buildInvoker(smf.ServiceName)
	if s.SMF, err = smf.New(ctx, smf.Config{Env: env, Registry: s.Registry, Invoker: smfInvoker}); err != nil {
		return nil, fmt.Errorf("deploy: SMF: %w", err)
	}

	// One GSC signing key for all module images of this operator, as in
	// the singleton path (only drawn when modules are actually extracted).
	var signKey ed25519.PrivateKey
	if cfg.Isolation != paka.Monolithic {
		if _, signKey, err = ed25519.GenerateKey(s.entropy); err != nil {
			return nil, fmt.Errorf("deploy: GSC sign key: %w", err)
		}
	}
	hmee := cfg.Isolation == paka.SGX || cfg.Isolation == paka.SEV

	amfs := make([]*amf.AMF, cfg.Replicas)
	for r := 0; r < cfg.Replicas; r++ {
		shard, err := s.buildShard(ctx, cfg, r, signKey, hmee)
		if err != nil {
			return nil, err
		}
		s.Shards = append(s.Shards, shard)
		amfs[r] = shard.AMF
	}

	// The top-level singleton fields alias shard 0, so code written
	// against the singleton slice (experiments, tests, tooling) observes
	// the first replica.
	first := s.Shards[0]
	s.UDM, s.AUSF, s.AMF = first.UDM, first.AUSF, first.AMF
	s.Modules = first.Modules
	s.MonoUDM = first.MonoUDM
	s.RemoteUDM, s.RemoteAUSF, s.RemoteAMF = first.RemoteUDM, first.RemoteAUSF, first.RemoteAMF
	s.Admission = first.Admission

	// Topology control plane: the NRF's builder owns the authoritative
	// replica set and pushes sealed snapshots into the gNB's router. The
	// router is subscribed before the first publish, so epoch 1 is its
	// catch-up-free baseline.
	s.Topology = topo.NewBuilder()
	s.Router = topology.NewRouter()
	replicas := make([]topology.Replica, len(s.Shards))
	for i, shard := range s.Shards {
		replicas[i] = topology.Replica{Index: i, Name: shard.Name}
	}
	s.Topology.SetReplicas(replicas)
	s.Topology.SetShardSize(cfg.ShardSize)
	if err := s.Topology.Subscribe(s.Router); err != nil {
		return nil, fmt.Errorf("deploy: router subscription: %w", err)
	}
	if res := s.Topology.Publish(); res.Nacked > 0 {
		return nil, fmt.Errorf("deploy: initial topology push nacked (epoch %d)", res.Epoch)
	}

	if s.GNB, err = gnb.New(gnb.Config{
		Env: env, AMFs: amfs, Router: s.Router, UPF: s.UPF,
		MCC: cfg.MCC, MNC: cfg.MNC, Radio: cfg.Radio,
	}); err != nil {
		return nil, fmt.Errorf("deploy: gNB: %w", err)
	}

	s.armChaos()
	s.wireOverload()
	return s, nil
}

// buildShard constructs vertical replica r: its P-AKA module set (or
// monolithic environments), its UDM, AUSF and AMF, all statically bound
// to each other by service name. No NRF discovery happens anywhere in the
// shard's call chain.
func (s *Slice) buildShard(ctx context.Context, cfg SliceConfig, r int, signKey ed25519.PrivateKey, hmee bool) (*CoreShard, error) {
	suffix := shardSuffix(r)
	shard := &CoreShard{
		Index:       r,
		Name:        fmt.Sprintf("shard-%d", r),
		UDMService:  udm.ServiceName + suffix,
		AUSFService: ausf.ServiceName + suffix,
	}

	var udmFns paka.UDMFunctions
	var ausfFns paka.AUSFFunctions
	var amfFns paka.AMFFunctions
	if cfg.Isolation == paka.Monolithic {
		shard.MonoUDM = paka.NewMonolithicUDM(s.Env)
		udmFns = shard.MonoUDM
		ausfFns = paka.NewMonolithicAUSF(s.Env)
		amfFns = paka.NewMonolithicAMF(s.Env)
	} else {
		shard.Modules = make(map[paka.ModuleKind]*paka.Module)
		for _, kind := range paka.Kinds() {
			m, err := paka.New(ctx, s.moduleConfig(kind, suffix, signKey))
			if err != nil {
				return nil, fmt.Errorf("deploy: %s module (shard %d): %w", kind, r, err)
			}
			shard.Modules[kind] = m
		}
		shard.RemoteUDM = paka.NewRemoteUDMService(s.buildInvoker(shard.UDMService), s.Env, shard.Modules[paka.EUDM].ServiceName())
		shard.RemoteAUSF = paka.NewRemoteAUSFService(s.buildInvoker(shard.AUSFService), s.Env, shard.Modules[paka.EAUSF].ServiceName())
		shard.RemoteAMF = paka.NewRemoteAMFService(s.buildInvoker(amf.ServiceName), s.Env, shard.Modules[paka.EAMF].ServiceName())
		udmFns, ausfFns, amfFns = shard.RemoteUDM, shard.RemoteAUSF, shard.RemoteAMF
	}

	var err error
	if shard.UDM, err = udm.New(ctx, udm.Config{
		Env: s.Env, Registry: s.Registry, Invoker: s.buildInvoker(shard.UDMService),
		Functions: udmFns, HomeNetworkKey: s.HomeNetworkKey, HMEE: hmee, Entropy: s.entropy,
		Reprovision: reprovisionHook(shard.Modules[paka.EUDM]),
		AVPoolDepth: cfg.AVPoolDepth, AVBatchSize: cfg.AVBatchSize,
		ServiceName: shard.UDMService, InstanceID: shard.UDMService + "-1",
	}); err != nil {
		return nil, fmt.Errorf("deploy: UDM (shard %d): %w", r, err)
	}

	if shard.AUSF, err = ausf.New(ctx, ausf.Config{
		Env: s.Env, Registry: s.Registry, Invoker: s.buildInvoker(shard.AUSFService),
		Functions: ausfFns, HMEE: hmee,
		ServiceName: shard.AUSFService, InstanceID: shard.AUSFService + "-1",
		UDMService: shard.UDMService,
	}); err != nil {
		return nil, fmt.Errorf("deploy: AUSF (shard %d): %w", r, err)
	}

	// Each shard gets its OWN token buckets: a tenant's storm drains only
	// the buckets of the shards its shuffle shard routes to.
	shard.Admission = newAdmission(cfg, s.Env)

	if shard.AMF, err = amf.New(ctx, amf.Config{
		Env: s.Env, Registry: s.Registry, Invoker: s.buildInvoker(amf.ServiceName + suffix),
		Functions: amfFns, MCC: cfg.MCC, MNC: cfg.MNC, HMEE: hmee,
		Admission:   shard.Admission,
		InstanceID:  amf.ServiceName + suffix + "-1",
		AUSFService: shard.AUSFService,
		Replica:     r,
	}); err != nil {
		return nil, fmt.Errorf("deploy: AMF (shard %d): %w", r, err)
	}
	return shard, nil
}
