#!/usr/bin/env bash
#===- tools/verify.sh - Full verification sweep --------------------------===//
#
# Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
#
# Builds the 'default' and 'asan' CMake presets and runs, under each:
#   * the tier-1 test suite (everything except the oracle/bench/fuzz/
#     serve/vm labels),
#   * the seeded translation-validation fuzz (`ctest -L check-oracle`),
#   * the coverage-guided fuzzer suite (`ctest -L check-fuzz`: a bounded
#     campaign plus the tests/corpus/ regression replay),
#   * the analysis-server suite (`ctest -L check-serve`: protocol goldens,
#     cache/coalescing, deadlines, shedding, drain, the driver
#     differential),
#   * the engine-differential wall (`ctest -L check-vm`: bytecode VM vs
#     AST interpreter across the suite, random seeds x configs, corpus,
#     server replay, and oracle check counts),
#   * the precision-differential wall (`ctest -L check-precision`:
#     CONSTANTS inclusion of the classic analysis in the flow-sensitive
#     aliasing and optimistic-numbering upgrades over the suite and a
#     random sweep, oracle-validated recoveries, toggle-off identity),
#   * the copy-lattice wall (`ctest -L check-copy`: CONSTANTS inclusion
#     of the classic analysis in the copy tier over the extended suite
#     and a 200-seed relay sweep, oracle-validated recoveries, strict
#     per-family gains, toggle-off identity),
#   * the speed gates (`ctest -L check-bench`: warm suite batch >=2x the
#     per-cell one with a >=0.3 solver-memo hit rate, 90%-repeat serve
#     traffic >=2x 0%-repeat traffic, and the VM >=10x the interpreter,
#     each with identical results — the suite and VM gates are relaxed
#     under sanitizer presets, which tax the two sides of a ratio
#     unevenly).
#
# The default preset then runs the benchmark's own tests
# (`python3 perfbench/run.py --selftest`): perfbench compiles src/ into
# its own build tree, so this is what catches an API change that breaks
# the benchmark. Unless --quick, it also runs the random fuzz sweep
# (tools/fuzz-sweep.py: 6000 random campaign seeds, `ipcp-fuzz --runs=4
# --seed-programs=3` each, 4 at a time), which must report no failing
# seed.
#
# When gcov is available, finishes with a small instrumented (cov
# preset) check-fuzz run and prints the line-coverage summary the
# campaign achieves over src/ (tools/coverage-report.sh).
#
# Usage: tools/verify.sh [--quick] [--tsan]
#   --quick   default preset only (skip the sanitizer rebuild, the
#             random fuzz sweep and the coverage pass)
#   --tsan    also build the 'tsan' preset and run the tier-1,
#             check-copy, check-serve, and check-vm suites plus the VM
#             speed gate under ThreadSanitizer, with explicit passes over the
#             session-shared cache tests (the value-context and
#             substitution memos and the per-key jump-function-base
#             slots are shared state reachable from pool workers) and the
#             TCP listener's drain and reaping tests (connection threads
#             joined while serving, readers woken on shutdown) (opt-in:
#             the TSan rebuild roughly doubles the sweep)
#
#===----------------------------------------------------------------------===//

set -euo pipefail
cd "$(dirname "$0")/.."

PRESETS=(default asan)
RUN_TSAN=0
RUN_SWEEP=1
for arg in "$@"; do
  case "$arg" in
    --quick) PRESETS=(default); RUN_SWEEP=0 ;;
    --tsan)  RUN_TSAN=1 ;;
    *)       echo "usage: tools/verify.sh [--quick] [--tsan]" >&2; exit 2 ;;
  esac
done

JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

for preset in "${PRESETS[@]}"; do
  case "$preset" in
    default) builddir=build ;;
    asan)    builddir=build-asan ;;
    *)       echo "unknown preset $preset" >&2; exit 1 ;;
  esac

  echo "==== [$preset] configure + build ===="
  cmake --preset "$preset" >/dev/null
  cmake --build "$builddir" -j "$JOBS"

  echo "==== [$preset] tier-1 tests ===="
  ctest --test-dir "$builddir" \
        -LE "check-oracle|check-bench|check-fuzz|check-serve|check-vm|check-precision|check-copy" \
        --output-on-failure -j "$JOBS"

  echo "==== [$preset] oracle fuzz (check-oracle) ===="
  ctest --test-dir "$builddir" -L check-oracle --output-on-failure -j "$JOBS"

  echo "==== [$preset] coverage fuzz (check-fuzz) ===="
  ctest --test-dir "$builddir" -L check-fuzz --output-on-failure -j "$JOBS"

  echo "==== [$preset] analysis server (check-serve) ===="
  ctest --test-dir "$builddir" -L check-serve --output-on-failure -j "$JOBS"

  echo "==== [$preset] engine differential (check-vm) ===="
  ctest --test-dir "$builddir" -L check-vm --output-on-failure -j "$JOBS"

  echo "==== [$preset] precision wall (check-precision) ===="
  ctest --test-dir "$builddir" -L check-precision --output-on-failure -j "$JOBS"

  echo "==== [$preset] copy-lattice wall (check-copy) ===="
  ctest --test-dir "$builddir" -L check-copy --output-on-failure -j "$JOBS"

  echo "==== [$preset] speed gates (check-bench) ===="
  ctest --test-dir "$builddir" -L check-bench --output-on-failure

  if [[ "$preset" == "default" ]]; then
    echo "==== [default] benchmark self-test (perfbench) ===="
    python3 perfbench/run.py --selftest
  fi

  if [[ "$preset" == "default" && "$RUN_SWEEP" == "1" ]]; then
    echo "==== [default] random fuzz sweep (6000 campaign seeds) ===="
    python3 tools/fuzz-sweep.py
  fi
done

if [[ "$RUN_TSAN" == "1" ]]; then
  echo "==== [tsan] configure + build ===="
  cmake --preset tsan >/dev/null
  cmake --build build-tsan -j "$JOBS"

  echo "==== [tsan] tier-1 tests ===="
  ctest --test-dir build-tsan \
        -LE "check-oracle|check-bench|check-fuzz|check-serve|check-vm|check-precision|check-copy" \
        --output-on-failure -j "$JOBS"

  echo "==== [tsan] copy-lattice wall (check-copy) ===="
  ctest --test-dir build-tsan -L check-copy --output-on-failure -j "$JOBS"

  echo "==== [tsan] session-shared caches: JF-base slots, solver and substitution memos ===="
  ctest --test-dir build-tsan -R 'AnalysisSession\.' --no-tests=error \
        --output-on-failure -j "$JOBS"

  echo "==== [tsan] analysis server (check-serve) ===="
  ctest --test-dir build-tsan -L check-serve --output-on-failure -j "$JOBS"

  echo "==== [tsan] engine differential (check-vm) ===="
  ctest --test-dir build-tsan -L check-vm --output-on-failure -j "$JOBS"

  echo "==== [tsan] TCP listener: drain with idle connections, thread reaping ===="
  ctest --test-dir build-tsan \
        -R '^ServeTransport\.(IdleConnectionDoesNotBlockDrain|FinishedConnectionsAreReaped)$' \
        --no-tests=error --output-on-failure -j "$JOBS"

  echo "==== [tsan] VM speed gate (relaxed) ===="
  ctest --test-dir build-tsan -R '^SpeedGate\.VmOutrunsAstOnFuzzWorkload$' \
        --no-tests=error --output-on-failure
fi

if [[ "${PRESETS[*]}" != "default" ]] && command -v gcov >/dev/null; then
  echo "==== [cov] instrumented check-fuzz + line-coverage summary ===="
  cmake --preset cov >/dev/null
  cmake --build build-cov -j "$JOBS"
  ctest --test-dir build-cov -L check-fuzz --output-on-failure -j "$JOBS"
  tools/coverage-report.sh build-cov | tail -n 5
fi

echo "==== verify: all presets green ===="
