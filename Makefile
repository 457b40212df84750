# graftlab build targets. Everything is plain `go` underneath; the
# Makefile just names the common workflows.

GO ?= go

.PHONY: all build test test-short race stress cover cover-check conformance-short fuzz-smoke bench bench-smoke bench-check bench-report bench-baseline reqbench-check loc-delta layout-delta check experiments quick-experiments examples clean

all: build test

# Tier-1 gate: gofmt + compile + vet + tests + a fast conformance pass +
# every benchmark exercised once. The full conformance suite already runs as
# part of `test`; the explicit -short pass keeps the gate honest even if
# the test matrix is filtered.
check: build test conformance-short bench-smoke

# gofmt gate: any file gofmt would rewrite fails the build.
build:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Concurrency stress suite under the race detector: pooled instances
# hammered from many goroutines, lifecycle swaps under load, E7 at a
# tiny scale, and the concurrent conformance pass. A subset of `race`,
# kept separate so CI reports data races in the multicore layer as
# their own failure.
stress:
	$(GO) test -race -count=1 -run 'Stress|Concurrent' ./...

# COVER_FLOOR is the recorded baseline (82.2% when set): cover-check
# fails if total statement coverage drops below it. Raise it when
# coverage durably improves; never lower it to make a PR pass.
COVER_FLOOR ?= 80.0

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the floor $(COVER_FLOOR)%"; exit 1; }

# Cross-technology conformance oracle, reduced program counts: the fast
# gate every change must clear before the full suite runs in CI.
conformance-short:
	$(GO) test -short -count=1 ./internal/conformance

# Native fuzz targets, a few seconds each: catches trivially reachable
# panics without a dedicated fuzzing farm. FUZZTIME is per target.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -run XXX ./internal/gel
	$(GO) test -fuzz=FuzzInterp -fuzztime=$(FUZZTIME) -run XXX ./internal/script
	$(GO) test -fuzz=FuzzVerify -fuzztime=$(FUZZTIME) -run XXX ./internal/aot
	$(GO) test -fuzz=FuzzDeliver -fuzztime=$(FUZZTIME) -run XXX ./internal/netsim
	$(GO) test -fuzz=FuzzSwap -fuzztime=$(FUZZTIME) -run XXX ./internal/lifecycle
	$(GO) test -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) -run XXX ./internal/tech

# One testing.B benchmark per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem -run XXX .

# Run every benchmark exactly once — catches bit-rot in benchmark-only
# code paths without paying measurement time.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run XXX .

# The regression gate, defined once for bench-check, bench-report and
# bench-baseline: the experiments the committed baseline holds (Table 5,
# the batched packet filter, and the lifecycle swap-under-load
# experiment), and the comparison against it. A cell fails only when it
# is more than 45% worse AND the move is significant against both
# samples' variance (Cohen's |d| >= 0.8) — shared-runner noise reads
# `noise`, not `regression`. See docs/benchmarking.md for the gate's
# rules.
GATE_EXPERIMENTS := table5,pktfilter-batch,swap-under-load
GATE_CHECK := -check-against BENCH_baseline.json -check-tolerance 0.45 -check-effect 0.8

# Regression gate: rerun the baseline's experiments at quick scale and
# compare against the committed baseline.
bench-check:
	$(GO) run ./cmd/graftbench -quick -experiment $(GATE_EXPERIMENTS) $(GATE_CHECK)

# Full quick-scale suite with generated artifacts: results.json,
# results.csv (the flattened cell matrix), and REPORT.md (methodology,
# stability flags, effect-size verdicts) land in bench-report/.
bench-report:
	$(GO) run ./cmd/graftbench -quick -report-dir bench-report $(GATE_CHECK)

# Re-archive the baseline the gate compares against. Run on a quiet
# machine; commit the result deliberately.
bench-baseline:
	$(GO) run ./cmd/graftbench -quick -experiment $(GATE_EXPERIMENTS) -json-out BENCH_baseline.json

# Self-test of the request benchmark (reqbench/, its own Go module, so
# `test` never compiles it): every workload briefly, traced and untraced,
# against this checkout's APIs. `bash reqbench/run.sh` runs it for real.
reqbench-check:
	cd reqbench && $(GO) test -count=1 .

# Net non-test Go line delta of the working tree against BASE (tracked
# files only, so `git add` new files first): lines added, deleted and
# net, outside *_test.go, testdata/ and reqbench/, each with the share
# that is comments or blank; then the same three figures for the
# *_test.go files outside reqbench/. CHANGES.md records both for every
# change.
BASE ?= HEAD~1

loc-delta:
	@git diff --no-color --unified=0 $(BASE) -- '*.go' ':!*_test.go' ':!*testdata/*' ':!reqbench/*' | awk '\
		/^(\+\+\+|---) (a\/|b\/|\/dev\/null)/ { next } \
		/^[+-]/ { \
			s = substr($$0, 1, 1); l = substr($$0, 2); sub(/^[ \t]+/, "", l); \
			n[s]++; if (l == "" || l ~ /^\/\//) c[s]++ \
		} \
		function pct(a, b) { return b ? 100 * a / b : 0 } \
		END { \
			a = n["+"] + 0; ca = c["+"] + 0; d = n["-"] + 0; cd = c["-"] + 0; \
			printf "Go lines vs $(BASE), without *_test.go, testdata/, reqbench/:\n"; \
			printf "  added   %6d  (comments/blank %d, %.0f%%)\n", a, ca, pct(ca, a); \
			printf "  deleted %6d  (comments/blank %d, %.0f%%)\n", d, cd, pct(cd, d); \
			printf "  net     %+6d  (code %+d, comments/blank %+d)\n", a - d, (a - ca) - (d - cd), ca - cd \
		}'
	@git diff --no-color --unified=0 $(BASE) -- '*_test.go' ':!reqbench/*' | awk '\
		/^(\+\+\+|---) (a\/|b\/|\/dev\/null)/ { next } \
		/^[+-]/ { n[substr($$0, 1, 1)]++ } \
		END { \
			a = n["+"] + 0; d = n["-"] + 0; \
			printf "*_test.go lines vs $(BASE), without reqbench/:\n"; \
			printf "  added %d, deleted %d, net %+d\n", a, d, a - d \
		}'

# Text-layout delta of the request benchmark against BASE: builds
# reqbench from a `git archive` of BASE and from the working tree (both
# -trimpath), then counts the text symbols of `go tool nm` whose address
# or size differs, per package and in total. reqbench's latencies move
# with code layout alone (ROADMAP), so 0 changed symbols means a change
# cannot have moved them that way. Informational: always exits 0, and
# builds in a temp dir, never in the checkout.
layout-delta:
	@tmp=$$(mktemp -d) || exit 0; trap 'rm -rf "$$tmp"' EXIT; \
	base=$$(git rev-parse --short "$(BASE)^{commit}" 2>/dev/null) || { echo "layout-delta: cannot resolve BASE=$(BASE)"; exit 0; }; \
	mkdir "$$tmp/base" && git archive "$$base" | tar -x -C "$$tmp/base" || { echo "layout-delta: cannot export $$base"; exit 0; }; \
	for side in base new; do \
		src="$$tmp/base"; [ "$$side" = new ] && src="$(CURDIR)"; \
		(cd "$$src/reqbench" && GOTOOLCHAIN=local $(GO) build -trimpath -buildvcs=false -o "$$tmp/$$side.bin" .) || { echo "layout-delta: building reqbench ($$side) failed"; exit 0; }; \
		$(GO) tool nm -size -sort address "$$tmp/$$side.bin" > "$$tmp/$$side.nm" || exit 0; \
	done; \
	awk -v base="$$base" '\
		function pkg(n,  s, i, j) { \
			s = n; sub(/^type:\.(eq|hash)\./, "", s); sub(/[[(].*/, "", s); \
			i = 0; while ((j = index(substr(s, i + 1), "/")) > 0) i += j; \
			j = index(substr(s, i + 1), "."); return j ? substr(s, 1, i + j - 1) : "(no package)" \
		} \
		$$3 != "T" && $$3 != "t" { next } \
		{ name = $$0; sub(/^ *[0-9a-f]+ +[0-9]+ +[Tt] /, "", name); k = name SUBSEP (++seen[FILENAME, name]) } \
		FNR == NR { addr[k] = $$1; size[k] = $$2; next } \
		{ \
			p = pkg(name); n++; \
			if (!(k in addr)) { add[p]++; hit[p] = 1; next } \
			if (addr[k] != $$1 || size[k] != $$2) { chg[p]++; hit[p] = 1 } \
			if (size[k] != $$2) rsz[p]++; \
			delete addr[k] \
		} \
		END { \
			for (k in addr) { split(k, f, SUBSEP); p = pkg(f[1]); del[p]++; hit[p] = 1 } \
			printf "reqbench text symbols, working tree vs %s (changed: address or size differs):\n", base; \
			printf "  %-44s %7s %7s %5s %7s\n", "package", "changed", "resized", "added", "removed"; \
			for (p in hit) { \
				printf "  %-44s %7d %7d %5d %7d\n", p, chg[p], rsz[p], add[p], del[p] | "sort"; \
				c += chg[p]; r += rsz[p]; a += add[p]; d += del[p] \
			} \
			close("sort"); \
			printf "  %-44s %7d %7d %5d %7d\n", "total", c, r, a, d; \
			printf "%d of %d text symbols moved or resized\n", c, n \
		}' "$$tmp/base.nm" "$$tmp/new.nm"

# Regenerate the paper's evaluation (Tables 1-6, Figure 1, ablations,
# packet filter). Minutes at paper scale; use quick-experiments for CI.
experiments:
	$(GO) run ./cmd/graftbench -figure1-csv figure1.csv

quick-experiments:
	$(GO) run ./cmd/graftbench -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pageevict
	$(GO) run ./examples/md5stream
	$(GO) run ./examples/logicaldisk
	$(GO) run ./examples/packetfilter
	$(GO) run ./examples/fastpath
	$(GO) run ./cmd/kernelsim -scenario all

clean:
	$(GO) clean ./...
	rm -f figure1.csv test_output.txt bench_output.txt coverage.out
	rm -rf bench-report
