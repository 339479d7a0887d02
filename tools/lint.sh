#!/usr/bin/env bash
# Repo lint pipeline: propeller-analyze, clang-tidy, the Clang
# thread-safety build, the GCC -Werror build, and the sanitizer preset
# matrix.
#
# Usage:
#   tools/lint.sh                 # static stages: analyze tidy tsa
#   tools/lint.sh --list          # print the available stages
#   tools/lint.sh analyze         # repo-invariant static analysis only
#   tools/lint.sh tidy            # clang-tidy only
#   tools/lint.sh tsa             # -Werror=thread-safety build only
#   tools/lint.sh werror          # GCC -Werror builds (tree + benchmark)
#   tools/lint.sh asan|ubsan|tsan # one sanitizer build+test (via presets)
#   tools/lint.sh all             # analyze tidy tsa werror asan ubsan tsan
#
# Exit status is non-zero when any selected stage fails.  Stages that need
# a toolchain this machine lacks (clang, clang-tidy) are SKIPPED with a
# notice and do not fail the run — export PROPELLER_LINT_REQUIRE_CLANG=1
# to turn those skips into failures (CI images with clang installed).  The
# analyze stage needs only a C++20 compiler and is never skipped.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$PWD
FAILED=0

note() { printf '==> %s\n' "$*"; }

skip_or_fail() {
  # $1 = missing tool, $2 = stage
  if [[ "${PROPELLER_LINT_REQUIRE_CLANG:-0}" != "0" ]]; then
    note "FAIL: stage '$2' requires $1 (PROPELLER_LINT_REQUIRE_CLANG=1)"
    FAILED=1
  else
    note "SKIP: stage '$2' needs $1, which is not installed"
  fi
}

stage_analyze() {
  # Dependency-free (no clang, no cmake configure needed): compile the
  # analyzer straight from its sources and run its determinism pass.
  # Reuses the binary from an existing build/ when it is current.  The wire
  # layout is checked by the wire_schema_test ctest, lock order by the
  # runtime rank detector, not here.
  note "propeller-analyze (determinism)"
  local bin=build/tools/analyze/propeller_analyze
  if [[ ! -x "$bin" || -n $(find tools/analyze -name '*.cc' -newer "$bin" \
        2>/dev/null) ]]; then
    bin=$(mktemp -d)/propeller_analyze
    note "compiling tools/analyze with ${CXX:-c++}"
    if ! "${CXX:-c++}" -std=c++20 -O2 -Wall -Wextra -Itools/analyze \
        tools/analyze/*.cc -o "$bin"; then
      note "FAIL: could not compile tools/analyze"
      FAILED=1
      return
    fi
  fi
  if ! "$bin" --root "$ROOT"; then
    note "FAIL: propeller-analyze reported findings"
    FAILED=1
  fi
}

stage_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    skip_or_fail clang-tidy tidy
    return
  fi
  note "clang-tidy over src/ (config: .clang-tidy, warnings are errors)"
  local build=build-lint-tidy
  cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # Every translation unit under src/; headers are covered through
  # HeaderFilterRegex.
  local files
  files=$(find src -name '*.cc' | sort)
  if ! clang-tidy --quiet -p "$build" --warnings-as-errors='*' $files; then
    note "FAIL: clang-tidy reported non-suppressed diagnostics"
    FAILED=1
  fi
}

stage_tsa() {
  local cxx=""
  if command -v clang++ >/dev/null 2>&1; then
    cxx=clang++
  else
    skip_or_fail clang++ tsa
    return
  fi
  note "Clang thread-safety build (-Werror=thread-safety)"
  local build=build-lint-tsa
  cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_COMPILER=$cxx \
      -DPROPELLER_THREAD_SAFETY_ANALYSIS=ON >/dev/null
  if ! cmake --build "$build" -j "$(nproc)"; then
    note "FAIL: thread-safety build failed"
    FAILED=1
  fi
}

stage_werror() {
  # Every GCC warning fails: the tree in its default RelWithDebInfo
  # configuration (the tier-1 build) and the repo benchmark in its own
  # Release configuration (what benchmark/run.sh builds).  The two
  # optimisation levels inline differently, so each can warn where the
  # other does not.
  if ! command -v g++ >/dev/null 2>&1; then
    note "FAIL: stage 'werror' needs g++"
    FAILED=1
    return
  fi
  note "GCC -Werror build (tree, then benchmark/)"
  local build=build-lint-werror
  if ! cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_COMPILER=g++ -DCMAKE_CXX_FLAGS=-Werror >/dev/null ||
     ! cmake --build "$build" -j "$(nproc)"; then
    note "FAIL: -Werror build of the tree"
    FAILED=1
  fi
  if ! cmake -B "$build/benchmark" -S benchmark -DCMAKE_CXX_COMPILER=g++ \
      -DCMAKE_CXX_FLAGS=-Werror >/dev/null ||
     ! cmake --build "$build/benchmark" -j "$(nproc)"; then
    note "FAIL: -Werror build of benchmark/"
    FAILED=1
  fi
}

stage_sanitizer() {
  # $1 = configure, build and test preset (asan / ubsan / tsan).
  local preset=$1
  note "sanitizer preset: $preset (configure + build + ctest)"
  if ! cmake --preset "$preset" >/dev/null; then
    note "FAIL: configure preset $preset"
    FAILED=1
    return
  fi
  if ! cmake --build --preset "$preset" -j "$(nproc)" >/dev/null; then
    note "FAIL: build preset $preset"
    FAILED=1
    return
  fi
  if ! ctest --preset "$preset"; then
    note "FAIL: test preset $preset"
    FAILED=1
  fi
}

STAGES=("$@")
if [[ ${#STAGES[@]} -eq 1 && ${STAGES[0]} == --list ]]; then
  cat <<'EOF'
analyze  repo-invariant static analysis (determinism ban-list) —
         needs only a C++20 compiler, never skipped
tidy     clang-tidy over src/ (.clang-tidy, warnings-as-errors)
tsa      Clang -Werror=thread-safety build
werror   GCC -Werror builds of the tree (RelWithDebInfo) and of
         benchmark/ (Release)
asan     AddressSanitizer preset build + ctest
ubsan    UndefinedBehaviorSanitizer preset build + ctest
tsan     ThreadSanitizer build + ctest over the fault, obs, segments,
         replication, load, master, attr and parallel labels
all      analyze tidy tsa werror asan ubsan tsan
EOF
  exit 0
fi
if [[ ${#STAGES[@]} -eq 0 ]]; then
  STAGES=(analyze tidy tsa)
elif [[ ${#STAGES[@]} -eq 1 && ${STAGES[0]} == all ]]; then
  STAGES=(analyze tidy tsa werror asan ubsan tsan)
fi

for stage in "${STAGES[@]}"; do
  case "$stage" in
    analyze) stage_analyze ;;
    tidy) stage_tidy ;;
    tsa) stage_tsa ;;
    werror) stage_werror ;;
    asan) stage_sanitizer asan ;;
    ubsan) stage_sanitizer ubsan ;;
    tsan) stage_sanitizer tsan ;;
    *)
      note "unknown stage '$stage' (expected: analyze tidy tsa werror asan ubsan tsan all)"
      exit 2
      ;;
  esac
done

if [[ $FAILED -ne 0 ]]; then
  note "lint: FAILED"
  exit 1
fi
note "lint: OK"
