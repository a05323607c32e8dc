#!/bin/sh
# The benchmark's own gate, for CI or a pre-merge check: unit tests, then a
# smoke run of every workload (both passes, full verification, emitted
# names checked against BENCHMARK.json) with the exact-count determinism
# check. About a minute on the 2-core reference container; measures nothing.
set -eu
cd "$(dirname "$0")/.."
cargo --config benchmark/cargo-config.toml test --release --quiet --manifest-path benchmark/Cargo.toml
cargo --config benchmark/cargo-config.toml run --release --quiet --manifest-path benchmark/Cargo.toml -- run --smoke --check-determinism
