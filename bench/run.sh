#!/usr/bin/env bash
# Builds ezperf from the sources of the checkout it is run in, then runs it
# with the given arguments. Run it from the root of the repository:
#
#	bash bench/run.sh --workload paper --seed 1 --seconds 15 --trace 0
#
# Every file the build and the benchmark write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build cache,
# temporary files, campaign stores and trace output.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local

go -C bench build -buildvcs=false -o "$out/ezperf" ./ezperf
exec "$out/ezperf" -trace-dir "$out/trace" "$@"
