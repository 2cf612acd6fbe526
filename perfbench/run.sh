#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in, then runs it.
#
#   bash perfbench/run.sh --workload offline-sim --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seconds 10 --trace 1   # every ledger
#
# Run it from the repository root. Every file the build and the run write
# stays under the build directory: $CARGO_TARGET_DIR when set, else
# .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .

workload=
args=()
while (($#)); do
	case $1 in
	--workload) workload=${2-}; shift 2 ;;
	--workload=*) workload=${1#*=}; shift ;;
	*) args+=("$1"); shift ;;
	esac
done

if [[ $workload == all ]]; then
	for w in offline-sim serve-loopback reprotables-all; do
		"$out/perfbench" --workload "$w" "${args[@]}"
	done
	exit 0
fi
exec "$out/perfbench" --workload "$workload" "${args[@]}"
