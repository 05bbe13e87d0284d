#!/usr/bin/env sh
# One-liner local verify: exactly the tier-1 command from ROADMAP.md.
#
# `check.sh --sanitize` instead configures an ASan+UBSan build (mirroring
# the CI sanitizer job) and runs the conformance sweep plus the randomized
# differential trials (sharded + streaming-update) and the distributed
# service suite: `ctest -L 'conformance|fuzz|dynamic|serve'`.
#
# `check.sh --tsan` configures a ThreadSanitizer build (mirroring the CI
# tsan job) and runs the concurrency-sensitive suites — the randomized
# sharded/async/streaming-update trials plus the storage-backend tests and
# the distributed service suite: `ctest -L 'fuzz|storage|dynamic|serve'`.
#
# `check.sh --dynamic` runs just the streaming-update suite (the delta
# layer's differential fuzzer and incremental-invalidation tests,
# `ctest -L dynamic`) in the regular tier-1 build — the quick loop while
# working on DeltaMatrix / the dirty-range plumbing.
#
# `check.sh --checked` configures a Debug build with the checked-build
# invariant validators active (-DMSPGEMM_CHECKED=ON: every MSP_CHECK_*
# boundary in src/ deep-validates, plus _GLIBCXX_ASSERTIONS) and runs the
# conformance/fuzz/dynamic suites and the seeded-corruption tests —
# mirroring the CI `checked` job.
#
# `check.sh --serve` runs the distributed service suite in the tier-1
# build (`ctest -L serve`), then a 2-worker mspgemm-serve smoke run whose
# output must assert bit-identity against the oracle and a clean shutdown
# — the quick loop while working on src/serve/.
#
# `check.sh --lint` runs the static lint gate (scripts/lint.sh: house
# rules + clang-tidy-with-baseline when installed) — mirroring the CI
# `lint` job, minus its hard clang-tidy requirement.
#
# `check.sh --loc [REF]` prints the lines added, removed and net under
# src/ in the working tree (untracked files included) against the
# merge-base of HEAD and REF (default `main`) — the net src/ figure every
# change reports. No build.
set -eu
cd "$(dirname "$0")/.."
if [ "${1:-}" = "--sanitize" ]; then
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMSPGEMM_SANITIZE=ON
  cmake --build build-asan -j
  # -L before the bare -j: a bare -j greedily consumes the next token as
  # its job count on some ctest versions, silently dropping the filter.
  cd build-asan && ctest --output-on-failure -L 'conformance|fuzz|dynamic|serve' -j
elif [ "${1:-}" = "--tsan" ]; then
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMSPGEMM_TSAN=ON
  cmake --build build-tsan -j
  cd build-tsan && ctest --output-on-failure -L 'fuzz|storage|dynamic|serve' -j
elif [ "${1:-}" = "--dynamic" ]; then
  cmake -B build -S . && cmake --build build -j
  cd build && ctest --output-on-failure -L dynamic -j
elif [ "${1:-}" = "--checked" ]; then
  cmake -B build-checked -S . -DCMAKE_BUILD_TYPE=Debug -DMSPGEMM_CHECKED=ON
  cmake --build build-checked -j
  cd build-checked && \
    ctest --output-on-failure -L 'conformance|fuzz|dynamic|checked' -j
elif [ "${1:-}" = "--serve" ]; then
  cmake -B build -S . && cmake --build build -j
  cd build && ctest --output-on-failure -L serve -j
  echo "== mspgemm-serve smoke (2 workers) =="
  ./mspgemm-serve --workers 2 --scale 12 --batch 4 --queries 3 | tee serve_smoke.txt
  grep -q "all queries bit-identical to oracle: yes" serve_smoke.txt
  grep -q "clean shutdown: yes" serve_smoke.txt
elif [ "${1:-}" = "--lint" ]; then
  exec sh scripts/lint.sh
elif [ "${1:-}" = "--loc" ]; then
  base=$(git merge-base "${2:-main}" HEAD)
  {
    git diff --numstat "$base" -- src
    git ls-files --others --exclude-standard -- src | while read -r f; do
      printf '%s\t0\t%s\n' "$(wc -l < "$f")" "$f"
    done
  } | awk -v base="$base" '{ add += $1; del += $2 }
    END { printf "src/ vs %.12s: +%d -%d net %+d\n", base, add, del, add - del }'
else
  cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j
fi
