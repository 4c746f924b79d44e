#!/usr/bin/env bash
# Builds ndpcr-bench from source inside the checkout and runs it with the
# driver's arguments. Everything the build writes (binary, Go build cache)
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ndpcr-bench" .) >&2
cd "$root"
exec "$build/ndpcr-bench" "$@"
