#!/bin/sh
# static_gate.sh — the whole static-analysis gate in one command:
#
#   1. bbrnash-lint over the real tree (per-file rules + the semantic
#      passes: include-graph layering, signal-safety, schema-registry),
#   2. the clang-tidy baseline gate (skips cleanly when clang-tidy is not
#      installed, and says so in the summary),
#   3. a warning-hardened build (-Wall -Wextra -Wpedantic -Wconversion …
#      promoted to errors via BBRNASH_WERROR=ON).
#
# Usage:
#   tools/ci/static_gate.sh [<source-root>]                 # CI mode
#   tools/ci/static_gate.sh <source-root> --reuse-build DIR # ctest mode
#
# CI mode configures a fresh Debug+Werror build in
# <source-root>/build-static-gate (so a stale cache can't hide a
# warning) and builds everything. ctest mode — how the `static_gate`
# test runs it — reuses an existing build tree: it builds the lint
# binary there, runs the lint and the clang-tidy gate against it, and
# re-drives the build with the tree's existing settings, failing on any
# compiler warning in the output. That keeps the inner-loop test cheap
# while CI keeps the fresh hardened build.
#
# The last line names every gate and whether it ran or was skipped, e.g.
#   static_gate: PASS (bbrnash-lint: ran; clang-tidy: skipped, not
#   installed; warning-clean build: ran)
# so a PASS never hides a gate that did not run.
#
# Exit codes: 0 gate passed, 1 violations/warnings, 2 usage or build
# failure.
set -u

SRC_ROOT=${1:-.}
SRC_ROOT=$(cd "$SRC_ROOT" && pwd) || exit 2
shift $(( $# > 0 ? 1 : 0 ))

REUSE_DIR=""
if [ "$#" -eq 2 ] && [ "$1" = "--reuse-build" ]; then
  REUSE_DIR=$(cd "$2" && pwd) || exit 2
elif [ "$#" -ne 0 ]; then
  echo "usage: $0 [<source-root>] [--reuse-build <build-dir>]" >&2
  exit 2
fi

fail=0

if [ -n "$REUSE_DIR" ]; then
  BUILD_DIR=$REUSE_DIR
  echo "== static_gate: reusing build tree $BUILD_DIR =="
  cmake --build "$BUILD_DIR" --target bbrnash_lint -j >/dev/null || exit 2
else
  BUILD_DIR="$SRC_ROOT/build-static-gate"
  echo "== static_gate: fresh warning-hardened build in $BUILD_DIR =="
  cmake -S "$SRC_ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Debug \
        -DBBRNASH_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        >/dev/null || exit 2
  cmake --build "$BUILD_DIR" --target bbrnash_lint -j >/dev/null || exit 2
fi

echo "== static_gate: bbrnash-lint (per-file rules + semantic passes) =="
LINT_BIN=$(find "$BUILD_DIR" -name bbrnash-lint -type f | head -n 1)
if [ -z "$LINT_BIN" ]; then
  echo "static_gate: bbrnash-lint binary not found under $BUILD_DIR" >&2
  exit 2
fi
lint_status="ran"
if ! "$LINT_BIN" --root "$SRC_ROOT" --no-suppressions; then
  lint_status="ran, failed"
  fail=1
fi

echo "== static_gate: clang-tidy baseline gate =="
"$SRC_ROOT/tools/lint/clang_tidy_gate.sh" "$SRC_ROOT" "$BUILD_DIR"
tidy_rc=$?
tidy_status="ran"
if [ "$tidy_rc" -eq 77 ]; then
  if command -v "${CLANG_TIDY:-clang-tidy}" >/dev/null 2>&1; then
    tidy_status="skipped, no compile_commands.json"
  else
    tidy_status="skipped, not installed"
  fi
  echo "static_gate: clang-tidy $tidy_status"
elif [ "$tidy_rc" -ne 0 ]; then
  tidy_status="ran, failed"
  fail=1
fi

echo "== static_gate: warning-clean build =="
BUILD_LOG=$(mktemp) || exit 2
trap 'rm -f "$BUILD_LOG"' EXIT
if ! cmake --build "$BUILD_DIR" -j > "$BUILD_LOG" 2>&1; then
  cat "$BUILD_LOG"
  echo "static_gate: build failed" >&2
  exit 2
fi
build_status="ran"
if grep -E 'warning:|error:' "$BUILD_LOG" > /dev/null; then
  grep -E 'warning:|error:' "$BUILD_LOG"
  echo "static_gate: compiler diagnostics in the build output" >&2
  build_status="ran, diagnostics"
  fail=1
fi

summary="bbrnash-lint: $lint_status; clang-tidy: $tidy_status; warning-clean build: $build_status"
if [ "$fail" -eq 0 ]; then
  echo "static_gate: PASS ($summary)"
else
  echo "static_gate: FAIL ($summary)" >&2
fi
exit "$fail"
