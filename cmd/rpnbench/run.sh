#!/usr/bin/env bash
# Builds cmd/rpnbench from the checkout's sources and runs it with the
# given arguments. Run it from the repository root, for example
#
#   bash cmd/rpnbench/run.sh --workload steady-mixed --seed 1 --seconds 10 --trace 0
#
# The benchmark is a module of its own (cmd/rpnbench/go.mod) that builds
# against the repository's packages in ../.. . Everything the go tool
# writes (build cache, temporary files, its configuration directory) stays
# in the build directory inside the checkout: $CARGO_TARGET_DIR when set,
# else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
    XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

(cd "$root/cmd/rpnbench" && go build -o "$build/rpnbench" .)
exec "$build/rpnbench" "$@"
