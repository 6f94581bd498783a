#!/usr/bin/env bash
# Which dphist_core functions does the server never run?
#
#   tools/core_sweep.sh
#
# Builds dphist_cli (serve, plan, recover, client) and the perfbench
# driver at -O0 -fno-inline with one section per function, links both
# with --gc-sections, and lists every function dphist_core defines out of
# line that neither binary keeps. Inlining is off because an inlined call
# leaves no reference behind, so an optimized build would list callees
# that do run. Destructors, operators and template instantiations (weak
# symbols, e.g. Status/Result members) are left out. First it prints
# dphist_core's line count: every .h/.cc under src/ outside src/paper/.
#
# Builds under build-sweep/ at the repository root; takes no flags. Each
# function it lists is to be deleted, moved to src/paper/ or tests/, or
# kept with a stated reason (CHANGES.md records the reasons).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/build-sweep
cxx_flags="-O0 -fno-inline -ffunction-sections"
link_flags="-Wl,--gc-sections"

lines=$(find "$root/src" -path "$root/src/paper" -prune -o \
  \( -name '*.h' -o -name '*.cc' \) -print0 | xargs -0 cat | wc -l)
echo "dphist_core lines: $lines"

# A build type with no flags of its own, so -O0 is not overridden.
cmake -S "$root" -B "$out/cli" -DCMAKE_BUILD_TYPE=None \
  -DDPHIST_BUILD_BENCH=OFF -DCMAKE_CXX_FLAGS="$cxx_flags" \
  -DCMAKE_EXE_LINKER_FLAGS="$link_flags" >/dev/null
cmake --build "$out/cli" --target dphist_cli -j 4 >/dev/null
cmake -S "$root/perfbench" -B "$out/perfbench" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$cxx_flags" \
  -DCMAKE_EXE_LINKER_FLAGS="$link_flags" >/dev/null
cmake --build "$out/perfbench" --target perfbench_driver -j 4 >/dev/null

# Demangled names of the symbols of type $1 (a sed character class).
names() {
  sed -n "s/^[0-9a-f]* $1 //p" | grep -v -e '::~' -e '::operator' | sort -u
}
nm -C --defined-only "$out/cli/libdphist_core.a" | names T \
  > "$out/core_functions.txt"
nm -C --defined-only "$out/cli/dphist_cli" \
  "$out/perfbench/perfbench_driver" | names '[A-Za-z]' > "$out/kept.txt"
comm -23 "$out/core_functions.txt" "$out/kept.txt" > "$out/unreached.txt"

echo "dphist_core functions neither binary keeps:" \
  "$(wc -l < "$out/unreached.txt")"
cat "$out/unreached.txt"
