# Mirrors .github/workflows/ci.yml so contributors run the same gate
# locally before pushing: `make ci`.

GO ?= go

.PHONY: fmt fmt-check vet build test check-fma bench bench-selftest serve-smoke obs-smoke dist-smoke fuzz-smoke lint coverage ci

fmt: ## Reformat all Go sources in place
	gofmt -w .

fmt-check: ## Fail if any file needs gofmt (CI's formatting gate)
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

vet: ## Static analysis
	$(GO) vet ./...

build: ## Compile every package and binary
	$(GO) build ./...

test: ## Full test suite with the race detector, shuffled (CI's main job)
	$(GO) test -race -shuffle=on ./...

check-fma: ## Cross-build for arm64/ppc64le/riscv64/s390x and fail on a fused multiply-add in internal/baseline, internal/dataset, internal/dist, internal/grouping or internal/query
	GO=$(GO) sh scripts/check_fma.sh

bench: ## Run every benchmark once (CI's bench-smoke job)
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

bench-selftest: ## Compile and self-test the benchmark module (benchmark/, a module of its own the root ./... does not reach)
	cd benchmark && $(GO) test ./...

serve-smoke: ## Boot onex-server, drive the v1 API end to end (CI's serve-smoke job)
	sh scripts/serve_smoke.sh

obs-smoke: ## Boot onex-server with tracing/logging/pprof on and verify the observability surface
	sh scripts/obs_smoke.sh

dist-smoke: ## Boot 2 shard workers + coordinator, cross-check answers vs local references (incl. worker restart)
	sh scripts/dist_smoke.sh

fuzz-smoke: ## Run every Fuzz* target for 10 s past its seed corpus (CI's fuzz-smoke job)
	sh scripts/fuzz_smoke.sh

# Static analysis beyond go vet (CI's lint job runs this target, so the
# tool versions are pinned here alone). Tools are fetched on demand.
STATICCHECK_VERSION = 2024.1.1
GOVULNCHECK_VERSION = v1.1.3
lint: ## staticcheck + govulncheck (downloads the tools on first use)
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Coverage gate of the parallel/sharded execution engine: the packages the
# concurrency and layout-equivalence test suites exercise must stay
# ≥ $(COVER_MIN)% covered. -coverpkg merges cross-package coverage (the
# shard suite drives most of query's scatter executor and grouping's
# threshold paths; grouping's own suite checks the thresholds against a
# literal merge simulation). rspace is only the facade the benchmark module
# compiles against. dist is in the set because its DTW kernel is a
# pruning path every scan runs; its own suite pins it to the full matrix.
COVER_MIN = 70
COVER_PKGS = ./internal/query/ ./internal/grouping/ ./internal/parallel/ ./internal/shard/ ./internal/rspace/ ./internal/dist/
coverage: ## Enforce ≥ 70% statement coverage on query+grouping+parallel+shard+rspace+dist
	$(GO) test -count=1 -coverprofile=cover.out \
		-coverpkg=$(shell echo "$(COVER_PKGS)" | tr ' ' ',') $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total%"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t + 0 < min) ? 1 : 0 }' \
		|| { echo "coverage $$total% is below $(COVER_MIN)%" >&2; exit 1; }

ci: fmt-check vet lint build test check-fma bench bench-selftest coverage serve-smoke obs-smoke dist-smoke fuzz-smoke ## The full local gate, same checks as CI
