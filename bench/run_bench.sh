#!/bin/sh
# Tier-1 verify plus machine-readable bench emission in one command:
# build, run the full test suite (including the compiled-vs-interpreted
# differential property suite), then write BENCH_PR1.json (index
# micro-bench), BENCH_PR2.json (phased-coexistence service),
# BENCH_PR4.json (compiled plans + plan cache), BENCH_PR6.json
# (worker-pool scaling by domain count: plan cache on and off, and a
# hot-shard stream),
# BENCH_PR7.json (live migration vs stop-the-world preparation),
# and BENCH_PR9.json (cost-based plan selection + backfill drain) at
# the repository root.
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest
dune exec bench/main.exe -- micro-index --json
dune exec bench/main.exe -- serve --json --out BENCH_PR2.json
dune exec bench/main.exe -- plan --json --out BENCH_PR4.json
dune exec bench/main.exe -- scaling --json --out BENCH_PR6.json
dune exec bench/main.exe -- migration --json --out BENCH_PR7.json
dune exec bench/main.exe -- cost drain --json --out BENCH_PR9.json
