#!/usr/bin/env bash
# Builds perfbench and the two programs it runs (cmd/paper and
# cmd/iotcollect) from this checkout, then runs perfbench with the given
# arguments. Every build artefact and every file a run writes stays under
# .bench_build/ at the root of the checkout.
#
#   bash perfbench/run.sh --workload paper-report --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

# The perfbench module pulls the system under test in through a replace of
# the parent directory; a checkout without it fails here, before any run.
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: no go.mod at $root: not a checkout of the repository" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
go -C "$root/perfbench" build -o "$out/bin/" . iotmap/cmd/paper iotmap/cmd/iotcollect
cd "$root"
exec "$out/bin/perfbench" "$@"
