#!/usr/bin/env bash
# Build mempool_bench into .bench_build at the repository root (the first run
# compiles the simulator), then run it with the given arguments, e.g.
#
#   bash bench/mempool_bench/run.sh --workload service --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the benchmark's last stdout line stays its
# JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"
build=.bench_build

{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    generator=()
    if command -v ninja > /dev/null; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  fi
  jobs="$(nproc)"
  cmake --build "$build" -j "$(( jobs < 4 ? jobs : 4 ))"
} >&2

exec "$build/mempool_bench" --work-dir "$build" "$@"
