#!/usr/bin/env bash
# Builds graftlab's request benchmark from this checkout and runs it,
# passing every argument through:
#
#   bash reqbench/run.sh --workload fault-path --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the toolchain's config and the binary all live in
# .bench_build/ at the checkout root, so a run writes nothing outside the
# checkout. Without the graftlab module beside this directory the build
# fails and the script exits non-zero before printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/reqbench"
	GOTOOLCHAIN=local GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" go build -buildvcs=false -o "$build/reqbench" .
)
# The manifest records the revision when the checkout is a git work tree;
# the ceiling keeps git from looking above the checkout.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
cd "$root"
exec "$build/reqbench" --commit "$commit" --spans-out "$build/spans.jsonl" "$@"
