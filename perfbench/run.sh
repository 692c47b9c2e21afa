#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it with
# the given arguments. Everything the build writes (the binary, the Go build
# cache, Go's config directory) stays under .bench_build in the checkout
# root, so the script must be started from that root:
#
#   bash perfbench/run.sh --workload urban-gcc-ground --seed 1 --seconds 15 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
# The build's output goes to stderr so the benchmark's last stdout line
# stays its JSON result.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
