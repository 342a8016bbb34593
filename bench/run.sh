#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# Go toolchain writes (build cache, temporary files, its config and
# telemetry directories) under bench/out/build/ in the checkout. The
# benchmark itself writes only under bench/out/ and, when /dev/shm is
# writable, a data directory there that it removes before exiting.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
# With a fresh config directory the go command would start its
# telemetry child, a detached process that outlives this script (also
# when the build fails); the mode file turns that off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
