#!/usr/bin/env bash
# Run one seeded test suite and fail the build if it ran no tests or ignored any:
# a suite that was skipped must not report green on work that never happened.
#   usage: .github/run_suite.sh <name> <command...>
set -euo pipefail
name="$1"; shift
echo "::group::$name (seed ${BYTEBRAIN_TEST_SEED:-default})"
out=$("$@" 2>&1) || { echo "$out"; echo "::error::suite $name failed"; exit 1; }
echo "$out"
echo "::endgroup::"
if ! echo "$out" | grep -qE 'test result: ok\. [1-9][0-9]* passed'; then
  echo "::error::suite $name ran no tests — skipped suites fail the build"
  exit 1
fi
if echo "$out" | grep -qE '[1-9][0-9]* ignored'; then
  echo "::error::suite $name ignored tests — skipped tests fail the build"
  exit 1
fi
