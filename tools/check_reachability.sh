#!/usr/bin/env bash
# Function reachability check: every out-of-line flashflow:: function in
# libflashflow must be linked into some program, or be listed with a
# reason in tools/reachability_allowlist.txt. Run from the repo root, or
# pass the repo root as $1.
#
# The programs are everything under tools/, bench/ (bench_micro excepted:
# a microbenchmark does not make library code needed) and examples/, plus
# bench/e2e/e2e.cpp. They are linked at -O0 with one section per function
# and --gc-sections, so a function survives in a binary exactly when some
# reference chain from main reaches it. -O0 matters: at -O2 a function
# whose only callers sit in its own file is inlined there, and its unused
# out-of-line copy would look dead.
#
# Unseen by construction: virtual functions (every vtable a program
# builds keeps all of its entries) and functions defined in headers
# (inline and template code is weak, not strong, in the library).
#
# Allowlist format: one demangled function per line, then " # " and the
# reason it stays. Exits 1 on an unlisted unreached function, and on a
# listed function that is now linked or no longer exists.
set -u

root="$(cd "${1:-.}" && pwd)"
allowlist="$root/tools/reachability_allowlist.txt"
flags="-O0 -ffunction-sections -fdata-sections"

if [ ! -d "$root/src" ] || [ ! -f "$allowlist" ]; then
  echo "check_reachability: no src/ or allowlist under '$root'" >&2
  exit 2
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
build="$tmpdir/build"

# bench/e2e builds through its own CMake project; its one source file is
# linked here directly, with the compiler the library was built with.
if ! cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \
    -DFLASHFLOW_BUILD_TESTS=OFF -DFLASHFLOW_BUILD_BENCH=ON \
    -DFLASHFLOW_BUILD_EXAMPLES=ON -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON \
    > "$tmpdir/log.txt" 2>&1 ||
   ! cmake --build "$build" -j "$(nproc)" >> "$tmpdir/log.txt" 2>&1 ||
   ! "$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")" \
       -std=c++20 $flags -I"$root/src" "$root/bench/e2e/e2e.cpp" \
       "$build/libflashflow.a" -Wl,--gc-sections -pthread \
       -o "$build/flashflow_e2e" >> "$tmpdir/log.txt" 2>&1; then
  tail -20 "$tmpdir/log.txt" >&2
  echo "check_reachability: build failed" >&2
  exit 2
fi

# Strong (nm type T) flashflow:: functions, demangled, one per line.
strong_functions() {
  nm --defined-only "$@" 2> /dev/null | awk '$2 == "T" { print $3 }' |
    c++filt | grep '^flashflow::' | LC_ALL=C sort -u
}

strong_functions "$build/libflashflow.a" > "$tmpdir/library.txt"
find "$build" -maxdepth 1 -type f -perm -u+x | LC_ALL=C sort \
  > "$tmpdir/programs.txt"
# shellcheck disable=SC2046
strong_functions $(cat "$tmpdir/programs.txt") > "$tmpdir/linked.txt"
LC_ALL=C comm -23 "$tmpdir/library.txt" "$tmpdir/linked.txt" \
  > "$tmpdir/unreached.txt"
sed 's/ # .*$//' "$allowlist" | LC_ALL=C sort -u > "$tmpdir/allowed.txt"

fails=0
while IFS= read -r fn; do
  echo "UNREACHED: $fn"
  fails=$((fails + 1))
done < <(LC_ALL=C comm -23 "$tmpdir/unreached.txt" "$tmpdir/allowed.txt")
while IFS= read -r fn; do
  if grep -qxF "$fn" "$tmpdir/library.txt"; then
    echo "STALE (now linked): $fn"
  else
    echo "STALE (not in the library): $fn"
  fi
  fails=$((fails + 1))
done < <(LC_ALL=C comm -13 "$tmpdir/unreached.txt" "$tmpdir/allowed.txt")

programs=$(wc -l < "$tmpdir/programs.txt")
functions=$(wc -l < "$tmpdir/library.txt")
if [ "$fails" -ne 0 ]; then
  echo "check_reachability: $fails findings over $functions functions and" \
       "$programs programs (allowlist: tools/reachability_allowlist.txt)" >&2
  exit 1
fi
echo "check_reachability: all $functions functions reached from" \
     "$programs programs or allowlisted"
