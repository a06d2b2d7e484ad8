#!/usr/bin/env bash
# Mutation checks: every tools/mutants/*.patch plants one known bug, and
# names the tests that must catch it.  The script exports the checkout's
# HEAD once, then for each patch applies it, rebuilds the named target,
# runs the named ctest regex and reverts the patch.  A mutant is killed
# when at least one test the regex selects fails.
#
# Usage: tools/run_mutants.sh [WORK_DIR]
#   WORK_DIR  where to export, build and keep the logs (default: a new
#             temporary directory).
#
# A patch is a unified diff against the repository root (patch -p1),
# preceded by its header lines:
#   Mutant: <what the bug is>
#   Target: <CMake target to rebuild>
#   Kills:  <ctest -R regex>
#
# Before any patch, every target is built on the clean export and every
# regex must select tests that pass there, so a kill is the mutant's.
#
# Exit status: 0 when every mutant is killed; 1 when one survives, no
# longer applies or does not build; 2 when the clean export fails.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="${1:-$(mktemp -d)}"
TREE="$WORK/tree"
BUILD="$WORK/build"
JOBS="$(nproc 2>/dev/null || echo 2)"
[ "$JOBS" -gt 4 ] && JOBS=4

field() { sed -n "s/^$1: *//p" "$2" | head -n 1; }

build() {  # build <target> <log>
  cmake --build "$BUILD" --target "$1" -j "$JOBS" > "$2" 2>&1
}

tests_pass() {  # tests_pass <regex> <log>
  (cd "$BUILD" && ctest -R "$1" --no-tests=error --timeout 600) > "$2" 2>&1
}

rm -rf "$TREE"
mkdir -p "$TREE"
git -C "$ROOT" archive HEAD | tar -x -C "$TREE"
generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
cmake -S "$TREE" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release "${generator[@]}" \
  > "$WORK/configure.log"

patches=("$ROOT"/tools/mutants/*.patch)
for p in "${patches[@]}"; do
  name="$(basename "$p" .patch)"
  target="$(field Target "$p")"
  regex="$(field Kills "$p")"
  if ! build "$target" "$WORK/$name.clean-build.log"; then
    echo "run_mutants: clean export: $target does not build" \
      "(see $WORK/$name.clean-build.log)" >&2
    exit 2
  fi
  if ! tests_pass "$regex" "$WORK/$name.clean-ctest.log"; then
    echo "run_mutants: clean export: '$regex' does not pass" \
      "(see $WORK/$name.clean-ctest.log)" >&2
    exit 2
  fi
done

status=0
for p in "${patches[@]}"; do
  name="$(basename "$p" .patch)"
  target="$(field Target "$p")"
  regex="$(field Kills "$p")"
  apply=(patch -p1 -d "$TREE" -F0 -s --no-backup-if-mismatch)
  if ! "${apply[@]}" --dry-run < "$p" > /dev/null 2>&1; then
    echo "STALE     $name: the patch no longer applies"
    status=1
    continue
  fi
  "${apply[@]}" < "$p"
  if ! build "$target" "$WORK/$name.build.log"; then
    echo "NO BUILD  $name: $target fails (see $WORK/$name.build.log)"
    status=1
  elif tests_pass "$regex" "$WORK/$name.ctest.log"; then
    echo "SURVIVED  $name: every test of '$regex' passes"
    status=1
  else
    echo "killed    $name by '$regex'"
  fi
  "${apply[@]}" -R < "$p"
done
echo "run_mutants: logs in $WORK"
exit "$status"
