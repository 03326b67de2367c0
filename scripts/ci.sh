#!/usr/bin/env bash
# CI entry point: the bigklint gate, then the full test suite under two
# presets — plain and AddressSanitizer+UBSan — each in its own build
# directory. The simulator runs every "concurrent" engine, device worker and
# daemon as a coroutine on one OS thread; src/, bench/, tests/, benchmark/
# and examples/ use no std::thread, std::atomic or std::mutex, so there is no
# ThreadSanitizer preset.
#
#   scripts/ci.sh [preset ...]     presets: lint plain asan-ubsan tidy
#
# With no arguments lint, plain and asan-ubsan run. plain builds with
# -Werror; asan-ubsan does not, since GCC's sanitizer builds warn in code
# that is otherwise warning-free, but it compiles without NDEBUG, so its
# asserts run. Each build preset's ctest already covers the fault,
# durability, load and hetero suites, the bench_fig4a_gate,
# bench_hetero_gate and bench_serve_gate perf gates, and the serve
# contracts: one ctest per serve_throughput or serve_load scenario or
# contract pair, so the sanitized build runs the serve_load ones too. plain
# also builds benchmark/ and runs its bigkbench_smoke.
# Set BIGK_CI_JOBS to override the parallelism (defaults to nproc).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${BIGK_CI_JOBS:-$(nproc)}"

run_preset() {
  local name="$1"
  shift
  local build_dir="${repo_root}/build-ci-${name}"
  echo "=== ci preset ${name}: configure (${*:-no extra flags}) ==="
  cmake -B "${build_dir}" -S "${repo_root}" "$@"
  # The flags every compile gets, so the log shows whether NDEBUG is set.
  grep -E '^CMAKE_(BUILD_TYPE|CXX_FLAGS|CXX_FLAGS_RELEASE):' \
    "${build_dir}/CMakeCache.txt"
  echo "=== ci preset ${name}: build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== ci preset ${name}: ctest ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
  echo "=== ci preset ${name}: OK ==="
}

presets=("$@")
if [ "${#presets[@]}" -eq 0 ]; then
  presets=(lint plain asan-ubsan)
fi

for preset in "${presets[@]}"; do
  case "${preset}" in
    plain)
      # A compiler warning fails the build (the root adds -Wall -Wextra).
      run_preset plain -DCMAKE_CXX_FLAGS=-Werror
      # The end-to-end benchmark is its own CMake project (benchmark/); its
      # ctest, bigkbench_smoke, runs every workload at a tiny size and checks
      # the output oracle and the metric catalogue.
      bench_dir="${repo_root}/build-ci-bench"
      echo "=== ci preset plain: configure benchmark/ ==="
      cmake -B "${bench_dir}" -S "${repo_root}/benchmark"
      echo "=== ci preset plain: build bigkbench ==="
      cmake --build "${bench_dir}" -j "${jobs}" --target bigkbench
      echo "=== ci preset plain: bigkbench_smoke ==="
      (cd "${bench_dir}" && ctest --output-on-failure)
      ;;
    asan-ubsan)
      # UBSan is fatal: a report aborts the test instead of only printing.
      # The Release flags leave out -DNDEBUG, so the simulator's invariant
      # asserts run in this build too.
      run_preset asan-ubsan -DBIGK_SANITIZE=address,undefined \
        -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined \
        -DCMAKE_CXX_FLAGS_RELEASE=-O2
      ;;
    lint)
      # bigkstatic gate: build only the bigklint CLI, verify every
      # registered app kernel against the static contracts with the seeded
      # violators armed, and lock the JSON report schema. Fast (no test
      # suite), so it fronts the default matrix and fails first on a
      # contract or schema break.
      lint_dir="${repo_root}/build-ci-lint"
      echo "=== ci preset lint: configure ==="
      cmake -B "${lint_dir}" -S "${repo_root}"
      echo "=== ci preset lint: build bigklint ==="
      cmake --build "${lint_dir}" -j "${jobs}" --target bigklint
      echo "=== ci preset lint: bigklint --violators ==="
      "${lint_dir}/src/bigklint" --violators
      echo "=== ci preset lint: check_lint schema gate ==="
      python3 "${repo_root}/scripts/check_lint.py" "${lint_dir}/src/bigklint"
      echo "=== ci preset lint: OK ==="
      ;;
    tidy)
      # Optional extra: static analysis build (no tests; compile = analyze;
      # .clang-tidy sets WarningsAsErrors so any finding fails the build).
      run_preset tidy -DBIGK_CLANG_TIDY=ON
      ;;
    *)
      echo "ci.sh: unknown preset '${preset}'" >&2
      echo "usage: scripts/ci.sh [lint|plain|asan-ubsan|tidy ...]" >&2
      exit 2
      ;;
  esac
done

echo "ci.sh: all presets passed: ${presets[*]}"
