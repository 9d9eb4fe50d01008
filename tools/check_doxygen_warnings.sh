#!/usr/bin/env bash
# Runs doxygen and fails if it emits documentation warnings for the headers
# this repo keeps warning-free. The full warning log is always printed, so
# drift in not-yet-gated headers stays visible without failing the build;
# add a path to DOXYGEN_GATED in tools/statcube_lint.py once its header is
# cleaned up.
#
# Usage: tools/check_doxygen_warnings.sh   (from the repo root)

set -uo pipefail

# Headers under the documentation gate: every public entity in these files
# must carry a doc comment and parse cleanly. The list lives once, as
# DOXYGEN_GATED in tools/statcube_lint.py, whose doc-gated rule checks the
# same files.
mapfile -t GATED < <(PYTHONPATH=tools python3 -c \
  'import statcube_lint; print("\n".join(statcube_lint.DOXYGEN_GATED))')
if [ ${#GATED[@]} -eq 0 ]; then
  echo "error: could not read DOXYGEN_GATED from tools/statcube_lint.py" >&2
  exit 2
fi

if ! command -v doxygen >/dev/null; then
  echo "error: doxygen not found on PATH" >&2
  exit 2
fi

mkdir -p build/docs
log=build/docs/doxygen_warnings.log
doxygen Doxyfile 2> "$log"
status=$?
if [ $status -ne 0 ]; then
  echo "error: doxygen exited with status $status" >&2
  cat "$log" >&2
  exit $status
fi

total=$(grep -c "warning:" "$log" || true)
echo "doxygen: $total warning(s) total (full log: $log)"

fail=0
for path in "${GATED[@]}"; do
  hits=$(grep "warning:" "$log" | grep -F "$path" || true)
  if [ -n "$hits" ]; then
    echo "FAIL: documentation warnings in gated path $path:" >&2
    echo "$hits" >&2
    fail=1
  fi
done

if [ $fail -ne 0 ]; then
  exit 1
fi
echo "gated headers are doxygen-warning-free"
