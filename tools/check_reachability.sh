#!/usr/bin/env bash
# Function reachability check: every flashflow:: function in libflashflow,
# out-of-line or header-inline, must be linked into some program, or be
# listed with a reason in tools/reachability_allowlist.txt. Run from the
# repo root, or pass the repo root as $1.
#
# The programs are everything under tools/, bench/ (bench_micro excepted:
# a microbenchmark does not make library code needed) and examples/, plus
# bench/e2e/e2e.cpp. They are linked at -O0 with one section per function
# and --gc-sections, so a function survives in a binary exactly when some
# reference chain from main reaches it. -O0 matters: at -O2 a function
# whose only callers sit in its own file is inlined there, and its unused
# out-of-line copy would look dead.
#
# Header-inline functions (defined in a class body or marked inline) are
# weak symbols, emitted only where they are used. -fkeep-inline-functions
# makes every library file emit each one its headers define, so the
# library lists them all (nm type W) and a program keeps those it calls.
# Three kinds of symbol are not compared: template instantiations (their
# demangled name starts with a return type, not flashflow::), constructors,
# destructors and assignment operators (the compiler emits its implicit
# ones too), and lambda bodies. A function built with target_clones is one
# function: its clones ("[clone .avx2]", "[clone .default]") are local
# symbols, and its resolver ("[clone .resolver]", type W) loses the suffix
# with the parameter list, so it stands for the function on both sides.
#
# Still unseen: virtual functions (every vtable a program builds keeps all
# of its entries), templates that are never instantiated, and implicit
# special members.
#
# Allowlist format: one demangled function per line, then " # " and the
# reason it stays. Exits 1 on an unlisted unreached function, and on a
# listed function that is now linked or no longer exists; 2 when the
# build fails or the compiler does not keep inline functions.
set -u

root="$(cd "${1:-.}" && pwd)"
allowlist="$root/tools/reachability_allowlist.txt"
flags="-O0 -ffunction-sections -fdata-sections -fkeep-inline-functions"

if [ ! -d "$root/src" ] || [ ! -f "$allowlist" ]; then
  echo "check_reachability: no src/ or allowlist under '$root'" >&2
  exit 2
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
build="$tmpdir/build"

build_failed() {
  tail -20 "$tmpdir/log.txt" >&2
  echo "check_reachability: build failed" >&2
  exit 2
}

# flashflow:: functions (nm T or W) of the given files, demangled, one per
# line, without template instantiations, special members and lambdas.
functions() {
  nm --defined-only "$@" 2> /dev/null |
    awk '$2 == "T" || $2 == "W" { print $3 }' | c++filt |
    grep '^flashflow::' | grep -v '{lambda(' |
    awk '{
      name = $0
      while (gsub(/<[^<>]*>/, "", name)) {}  # template arguments
      sub(/\(.*/, "", name)                  # the parameter list
      if (name ~ / / && name !~ /::operator /) next  # a return type first
      n = split(name, part, "::")
      if (part[n] != part[n - 1] && part[n] !~ /^~/ && part[n] != "operator=")
        print
    }' | LC_ALL=C sort -u
}

if ! cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \
    -DFLASHFLOW_BUILD_TESTS=OFF -DFLASHFLOW_BUILD_BENCH=ON \
    -DFLASHFLOW_BUILD_EXAMPLES=ON -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON \
    > "$tmpdir/log.txt" 2>&1; then
  build_failed
fi
cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")"

# A compiler that ignored -fkeep-inline-functions would hide every
# header-inline function and the check would pass blind: an unused inline
# function must show up in its object file.
echo 'namespace flashflow { inline int canary() { return 0; } }' \
  > "$tmpdir/canary.cpp"
if ! "$cxx" -std=c++20 $flags -c "$tmpdir/canary.cpp" \
       -o "$tmpdir/canary.o" >> "$tmpdir/log.txt" 2>&1 ||
   ! functions "$tmpdir/canary.o" | grep -qxF 'flashflow::canary()'; then
  echo "check_reachability: $cxx does not keep unused inline functions" \
       "under '$flags'" >&2
  exit 2
fi

# bench/e2e builds through its own CMake project; its one source file is
# linked here directly, with the compiler the library was built with.
if ! cmake --build "$build" -j "$(nproc)" >> "$tmpdir/log.txt" 2>&1 ||
   ! "$cxx" -std=c++20 $flags -I"$root/src" "$root/bench/e2e/e2e.cpp" \
       "$build/libflashflow.a" -Wl,--gc-sections -pthread \
       -o "$build/flashflow_e2e" >> "$tmpdir/log.txt" 2>&1; then
  build_failed
fi

functions "$build/libflashflow.a" > "$tmpdir/library.txt"
find "$build" -maxdepth 1 -type f -perm -u+x | LC_ALL=C sort \
  > "$tmpdir/programs.txt"
# shellcheck disable=SC2046
functions $(cat "$tmpdir/programs.txt") > "$tmpdir/linked.txt"
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
