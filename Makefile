GO ?= go

.PHONY: all build test race lint vet bench loc ci experiments examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository's own static-analysis suite (see internal/analysis):
# determinism, secretflow, stripemap, hotalloc, lockorder. Exits non-zero
# on any unsuppressed finding. govulncheck runs when the host has it installed
# (CI does); locally it is skipped rather than fetched, keeping the
# target usable in network-free build environments.
lint:
	$(GO) run ./tools/shieldlint ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

race:
	$(GO) test -race ./...

# The local short loop: static checks plus a focused race pass over the
# fault-injection, mass-registration, and enclave-runtime paths (parallel
# drivers, injector, resilience layer, overload limiter + admission
# buckets, keep-alive sessions, TCS pool, the switchless ring's dispatcher
# lock). `make ci` runs the whole suite under -race instead.
vet:
	$(GO) vet ./...
	$(GO) test -race ./internal/chaos/ ./internal/sbi/ ./internal/gnb/ ./internal/deploy/ ./internal/paka/ ./internal/admission/ ./internal/topology/ ./internal/nf/nrf/topo/ ./internal/hmee/sgx/ ./internal/hmee/gramine/

# The per-package testing.B micro-benchmarks (crypto, NAS, SBI post, SGX
# accounting). The paper's tables and figures are `make experiments`; the
# repository benchmark every PR is judged on — six workloads, two clocks,
# end-to-end and per-layer metrics — is `bash bench/run.sh`
# (BENCHMARK.json, bench/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# The one size ruler CHANGES.md and ROADMAP.md quote: non-test, non-blank,
# non-comment Go lines of the committed tree, with and without bench/, then
# the same count per top-level package (internal/<pkg>, bench, cmd, ...),
# largest first — ROADMAP's "where the lines are now".
loc:
	@files() { git ls-files '*.go' ':!*_test.go' "$$@"; }; \
	code='^[[:space:]]*(//|$$)'; \
	echo "non-test Go code lines: $$(files | xargs cat | grep -vcE "$$code") ($$(files ':!bench/' | xargs cat | grep -vcE "$$code") without bench/)"; \
	files | while read -r f; do echo "$$(grep -vcE "$$code" "$$f") $$f"; done | \
	awk '{ n = split($$2, p, "/"); k = n == 1 ? "(root)" : p[1] == "internal" ? p[1] "/" p[2] : p[1]; s[k] += $$1 } \
		END { for (k in s) printf "%7d  %s\n", s[k], k }' | sort -rn

# What CI runs (.github/workflows/ci.yml's test job is `make ci`), cheapest
# signal first: gofmt over the main module (bench/ is checked with its own
# module below), lint, vet, the whole suite under -race (it holds every
# acceptance gate on a deterministic virtual quantity, and a -race build
# runs the SBI body-pool audit, internal/sbi/audit.go, in every package),
# then the nine tests whose allocation or heap budgets skip themselves
# under -race on a plain build. After that, end to end: the experiments
# CLI regenerates every row and CSV series (its own tests stub every Run);
# the deployable binary, core5g, registers one UE on the container backend,
# opens a PDU session and echoes data (it exits non-zero on any failure);
# the three examples run end to end (the attestation one also shows the
# slice refusing the eAUSF's evidence as the eUDM's); eight gnbsim smokes drive the storm replay (unsharded with
# the AV pool, and on four shards, whose admission line is the fleet's sum;
# each runs twice and must replay), the sharded core, the ring
# under four workers, the SEV guest (the one backend no bench workload
# deploys), chaos on two shards (crashes reach replica 1's modules under
# their derived names, and a restarted SGX key store refills from the
# sealed files), chaos on two SEV shards (a restarted guest eUDM gets K
# back through the UDM's re-provisioning, behind attestation) and, built
# with -race so the audit is on in a real binary, a chaos run across
# crash-restart, retry and batch-refill paths;
# six fuzz passes (SBI frames, JSON codec, the HTTP edge, NAS decode, the
# UE's downlink, SUCI de-concealment); and the benchmark module — its own
# go.mod, so `./...` never reaches it — is vetted, tested, gofmt-checked
# and run for a second in binary-frame, JSON and ring mode.
# The storm smokes, each run twice: every line but the deploy's wall-time
# line must replay (the seed fixes the whole virtual run). The unsharded one
# deploys the AV pool the storm experiment and bench's storm_ladder do.
STORM_SMOKES = '-n 40 -storm 10 -limiter -avpool 8 -seed 7' '-n 400 -storm 10 -limiter -seed 7 -shards 4'

ci: build
	test -z "$$(gofmt -l $$(git ls-files '*.go' ':!bench/') | tee /dev/stderr)"
	$(MAKE) lint
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run 'TestBatchingAmortizes|TestShardScaleFleetSpeedup|TestSwitchlessFastPathGates|TestReRegistrationAllocBudget|TestSecurityContextAllocs|TestCoreBytesPerRegisteredUE|TestCoreBytesPerSubscriberReplica|TestCoreHeapFlatUnderReRegistration|TestUEBytesPerDevice' . ./internal/experiments ./internal/nas ./internal/deploy
	$(GO) run ./cmd/experiments -iterations 60 -csvdir "$$(mktemp -d)" all
	$(GO) run ./cmd/core5g -isolation container
	$(MAKE) examples
	set -e; for args in $(STORM_SMOKES); do \
		d=$$(mktemp -d); \
		$(GO) run ./cmd/gnbsim $$args > $$d/1; cat $$d/1; \
		$(GO) run ./cmd/gnbsim $$args > $$d/2; \
		grep -v ' wall time$$' $$d/1 > $$d/1.v; grep -v ' wall time$$' $$d/2 > $$d/2.v; \
		diff $$d/1.v $$d/2.v || { echo "storm smoke '$$args' did not replay"; exit 1; }; \
	done
	$(GO) run ./cmd/gnbsim -n 32 -shards 4 -batch 8 -avpool 8 -seed 9
	$(GO) run ./cmd/gnbsim -n 32 -parallel 4 -switchless -batch 8 -avpool 8 -seed 11
	$(GO) run ./cmd/gnbsim -n 32 -isolation sev -batch 8 -avpool 8 -seed 13
	$(GO) run ./cmd/gnbsim -n 32 -shards 2 -chaos 0.3 -batch 8 -avpool 8 -seed 15
	$(GO) run ./cmd/gnbsim -n 64 -isolation sev -shards 2 -chaos 0.3 -batch 8 -avpool 8 -seed 17
	$(GO) run -race ./cmd/gnbsim -n 64 -chaos 0.3 -batch 8 -avpool 8 -seed 5
	$(GO) test -run '^$$' -fuzz '^FuzzFramePayload$$' -fuzztime 5s ./internal/sbi/codec
	$(GO) test -run '^$$' -fuzz '^FuzzJSONDifferential$$' -fuzztime 10s ./internal/sbi/codec
	$(GO) test -run '^$$' -fuzz '^FuzzServeHTTP$$' -fuzztime 5s ./internal/sbi
	$(GO) test -run '^$$' -fuzz '^FuzzNASDecode$$' -fuzztime 5s ./internal/nas
	$(GO) test -run '^$$' -fuzz '^FuzzUEDownlink$$' -fuzztime 5s ./internal/ue
	$(GO) test -run '^$$' -fuzz '^FuzzDeconceal$$' -fuzztime 5s ./internal/crypto/suci
	cd bench && $(GO) vet ./... && $(GO) test ./... && test -z "$$(gofmt -l .)"
	bash bench/run.sh --workload attach_sharded --seconds 1
	bash bench/run.sh --workload attach_paper --seconds 1
	bash bench/run.sh --workload reauth_ring --seconds 1

# Regenerate every table and figure of the paper (500 samples each).
experiments:
	$(GO) run ./cmd/experiments all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/introspection
	$(GO) run ./examples/attestation

clean:
	$(GO) clean ./...
