#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it from the
# checkout root. Every file the build or the run writes stays inside the
# checkout: the Go build cache, the binary, temp dirs and trace files all
# live under .bench_build. Nothing is downloaded (zero-dependency module).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry counters under the user config dir;
# point that inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/rexload" .)
cd "$root"
exec "$build/rexload" -tmp-dir "$build/tmp" "$@"
