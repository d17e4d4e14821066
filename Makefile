GO ?= go

.PHONY: all build test race lint vet escapes bench loc ci experiments examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository's own static-analysis suite (see internal/analysis):
# determinism and secretflow. Exits non-zero on any unsuppressed finding. govulncheck runs when the host has it installed
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
# lock, every backend under internal/hmee: the guest process's key-store
# map, SGX and SEV), the shard stripes and the NF stores, whose unlocked
# map access only -race sees, and the lock ranks, which a -race build
# checks at every acquisition. `make ci` runs the whole suite under -race
# instead.
vet:
	$(GO) vet ./...
	$(GO) test -race ./internal/chaos/ ./internal/sbi/ ./internal/gnb/ ./internal/deploy/ ./internal/paka/ ./internal/admission/ ./internal/topology/ ./internal/hmee/... ./internal/simclock/ ./internal/shard/ ./internal/nf/... ./internal/lockrank/

# Every SBI request of the NFs and the P-AKA modules is posted by value
# through its sbi.Endpoint (Post, Send), which copies it into a pooled
# pair, so no request literal reaches the heap. Fails, listing them, on
# any `&...Request{...} escapes to heap` the compiler reports there.
# A subscriber's K leaves the runtime's key store by value (Exec.LoadSecret)
# into a local of the handler that expands it, so no copy of K reaches the
# heap either: fails on any `moved to heap: k` under internal/paka and
# internal/hmee. A charge on a context without an account charges the nil
# account (the clock alone), so simclock and costmodel allocate no
# account: fails on any `Account` literal or new(Account) the compiler
# moves to the heap under internal/simclock and internal/costmodel.
# De-concealment and SUPI.Value build the SUPI's text in a stack buffer
# and parse it there: fails on any `moved to heap: buf` under
# internal/crypto/suci. A sealed file's additional data is written into
# pooled scratch, since the AEAD is called through an interface: fails on
# any `moved to heap: ad` under internal/hmee/sgx. Every charge and every
# hop site reads the request's Call off its context, whose common case is
# one type assertion: fails when the compiler stops reporting that it can
# inline CallFrom, AccountFrom or EnterHop.
escapes:
	@out=$$($(GO) build -gcflags=-m ./internal/nf/... ./internal/paka ./internal/hmee/... ./internal/simclock ./internal/costmodel ./internal/crypto/suci 2>&1) || { echo "$$out"; exit 1; }; \
	esc=$$(echo "$$out" | grep -E '&[[:alnum:]_.]*Request\{\.\.\.\} escapes to heap'); \
	if [ -n "$$esc" ]; then echo "$$esc"; echo "request literals escape to the heap"; exit 1; fi; \
	key=$$(echo "$$out" | grep -E '^internal/(paka|hmee)/.*: moved to heap: k$$'); \
	if [ -n "$$key" ]; then echo "$$key"; echo "a copy of K moves to the heap"; exit 1; fi; \
	acct=$$(echo "$$out" | grep -E '^internal/(simclock|costmodel)/.*: (&(simclock\.)?Account\{[^}]*\}|new\((simclock\.)?Account\)) escapes to heap$$'); \
	if [ -n "$$acct" ]; then echo "$$acct"; echo "an account is allocated on the heap"; exit 1; fi; \
	buf=$$(echo "$$out" | grep -E '^internal/crypto/suci/.*: moved to heap: buf$$'); \
	if [ -n "$$buf" ]; then echo "$$buf"; echo "a SUPI's text buffer moves to the heap"; exit 1; fi; \
	ad=$$(echo "$$out" | grep -E '^internal/hmee/sgx/.*: moved to heap: ad$$'); \
	if [ -n "$$ad" ]; then echo "$$ad"; echo "a sealed file's additional data moves to the heap"; exit 1; fi; \
	for f in CallFrom AccountFrom EnterHop; do \
		echo "$$out" | grep -qE "^internal/simclock/.*: can inline $$f$$" || { echo "simclock.$$f no longer inlines"; exit 1; }; \
	done

# The per-package testing.B micro-benchmarks (crypto, NAS, SBI post, SGX
# accounting). The paper's tables and figures are `make experiments`; the
# repository benchmark every PR is judged on — six workloads, two clocks,
# end-to-end and per-layer metrics — is `bash bench/run.sh`
# (BENCHMARK.json, bench/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# The one size ruler CHANGES.md and ROADMAP.md quote: non-test, non-blank,
# non-comment Go lines of the committed tree, with and without bench/; then
# the census of non-test functions no binary links, read from the -v log of
# internal/analysis's TestEveryFunctionHasABinaryCaller (it builds every
# binary without inlining and reads `go tool nm`); then the line count per
# top-level package (internal/<pkg>, bench, cmd, ...), largest first —
# ROADMAP's "where the lines are now".
loc:
	@files() { git ls-files '*.go' ':!*_test.go' "$$@"; }; \
	code='^[[:space:]]*(//|$$)'; \
	echo "non-test Go code lines: $$(files | xargs cat | grep -vcE "$$code") ($$(files ':!bench/' | xargs cat | grep -vcE "$$code") without bench/)"; \
	$(GO) test -count=1 -run '^TestEveryFunctionHasABinaryCaller$$' -v ./internal/analysis | \
		sed -n 's/^.*: \(non-test functions linked into no binary: .*\)$$/\1/p'; \
	files | while read -r f; do echo "$$(grep -vcE "$$code" "$$f") $$f"; done | \
	awk '{ n = split($$2, p, "/"); k = n == 1 ? "(root)" : p[1] == "internal" ? p[1] "/" p[2] : p[1]; s[k] += $$1 } \
		END { for (k in s) printf "%7d  %s\n", s[k], k }' | sort -rn

# What CI runs (.github/workflows/ci.yml's test job is `make ci`), cheapest
# signal first: gofmt over the main module's tracked and untracked,
# not ignored, files (bench/ is checked with its own module below), lint,
# the escape check on SBI request literals, vet, the whole suite under -race (it holds every
# acceptance gate on a deterministic virtual quantity, and a -race build
# runs the SBI body-pool audit, internal/sbi/audit.go, in every package,
# and checks every acquisition of a ranked mutex, internal/lockrank),
# then the whole suite again on a plain build, tier-1's `go test ./...`:
# the allocation and heap budgets that skip themselves under -race and the
# exact hot-path allocation rows (TestHotPathAllocs), which build only
# without -race, run there without a list to keep. Both runs hold the one
# SBI encoder: internal/analysis's TestOneJSONEncoder fails, naming the
# files, on a non-test import of encoding/json outside internal/sbi/codec
# (the codec's reference and fallback) and internal/analysis. After that, end to end: the experiments
# CLI regenerates every row and CSV series (its own tests stub every Run);
# the deployable binary, core5g, on each backend (container, SGX, SEV)
# registers one UE and prints its hops (Fig. 5; it exits non-zero when the
# hop record overflowed or its top-level hops charged more than the
# registration booked), opens a PDU session, echoes data, deregisters the
# UE, checks that the AMF, SMF and UPF released its context and session,
# and prints the virtual time each procedure booked (it exits non-zero on
# any failure, a cycle charged to no account on either env included, and
# checks that after stopping the slice, whose teardown books too);
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
# go.mod, so `./...` never reaches it — is vetted, tested, gofmt-checked,
# linted (bench/host.go's two annotated wall-clock reads included) and
# run for a second in binary-frame mode (fresh attaches with the AV pool
# refilling, unsharded and on four replicas), JSON and ring mode, and on
# the storm ladder (JSON with the AV pool refilling and the limiter armed).
# The storm smokes, each run twice: every line but the deploy's wall-time
# line must replay (the seed fixes the whole virtual run). The unsharded one
# deploys the AV pool the storm experiment and bench's storm_ladder do.
STORM_SMOKES = '-n 40 -storm 10 -limiter -avpool 8 -seed 7' '-n 400 -storm 10 -limiter -seed 7 -shards 4'

ci: build
	test -z "$$(gofmt -l $$(git ls-files -co --exclude-standard '*.go' ':!bench/') | tee /dev/stderr)"
	$(MAKE) lint
	$(MAKE) escapes
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test ./...
	$(GO) run ./cmd/experiments -iterations 60 -csvdir "$$(mktemp -d)" all
	$(GO) run ./cmd/core5g -isolation container
	$(GO) run ./cmd/core5g -isolation sgx
	$(GO) run ./cmd/core5g -isolation sev
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
	cd bench && $(GO) vet ./... && $(GO) test ./... && test -z "$$(gofmt -l .)" && $(GO) run shield5g/tools/shieldlint ./...
	bash bench/run.sh --workload attach_fast --seconds 1
	bash bench/run.sh --workload attach_sharded --seconds 1
	bash bench/run.sh --workload attach_paper --seconds 1
	bash bench/run.sh --workload reauth_ring --seconds 1
	bash bench/run.sh --workload storm_ladder --seconds 1

# Regenerate every table and figure of the paper (500 samples each).
experiments:
	$(GO) run ./cmd/experiments all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/introspection
	$(GO) run ./examples/attestation

clean:
	$(GO) clean ./...
