#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (compiler cache and
# temporary files under bench/out/, which .gitignore names) and runs it
# with the arguments given. The benchmark replaces this shell, so nothing is
# left running when it exits.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out/gocache out/gotmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/gotmp"
go build -o out/bench .
exec ./out/bench "$@"
