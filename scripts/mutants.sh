#!/usr/bin/env bash
# The mutation catalogue: every oracle's seeded mutation stays killed.
#
# Each entry under scripts/mutants/ is one unified diff against the tree,
# headed by two lines:
#
#   oracle: <the test that holds the oracle, what it holds, and the
#           ROADMAP item it came from>
#   test: <one command that must fail with the diff applied>
#
# For each entry this script applies the diff to a scratch copy of the
# tree (target/mutants/tree), checks that the mutant builds (the command
# with `--no-run`), runs the command and demands a non-zero exit, then
# reverts the diff. A diff that no longer applies, a mutant that does not
# build and a mutant that the command does not kill are failures. A
# refactor re-ports its mutants in the same change; a mutant is dropped
# only with the code it mutates, and CHANGES.md says so.
#
# Every entry shares one CARGO_TARGET_DIR (target/mutants/target), so
# after the first build an entry rebuilds only the crates its diff
# touches.
#
# Usage: scripts/mutants.sh [NAME-SUBSTRING]   (run the matching entries)
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
work=$root/target/mutants
tree=$work/tree
export CARGO_TARGET_DIR=$work/target

# The tree as it stands: tracked and untracked files, minus ignored ones.
rm -rf "$tree"
mkdir -p "$tree"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' file; do
        if [ -e "$file" ]; then printf '%s\0' "$file"; fi
    done |
    tar --null -T - -cf - | tar -xf - -C "$tree"

entries=()
for entry in scripts/mutants/*.diff; do
    case "$(basename "$entry" .diff)" in *"${1:-}"*) entries+=("$entry") ;; esac
done
if [ "${#entries[@]}" -eq 0 ]; then
    echo "FAIL: no entry under scripts/mutants/ matches '${1:-}'" >&2
    exit 1
fi

# A file the shared target dir last saw mutated keeps its old mtime in a
# fresh copy; touch every mutated file so cargo rebuilds it from source.
for entry in "${entries[@]}"; do
    sed -n 's|^+++ b/||p' "$entry" | while read -r file; do touch "$tree/$file"; done
done

killed=0
failures=()
for entry in "${entries[@]}"; do
    name=$(basename "$entry" .diff)
    oracle=$(sed -n '1s/^oracle: //p' "$entry")
    cmd=$(sed -n '2s/^test: //p' "$entry")
    log=$work/$name.log
    echo "== $name"
    if [ -z "$oracle" ] || [ -z "$cmd" ]; then
        failures+=("$name: the first two lines must be 'oracle: ...' and 'test: ...'")
        continue
    fi
    echo "   oracle: $oracle"
    if ! (cd "$tree" && patch -p1 --batch --forward --fuzz=0 --silent --dry-run <"$root/$entry" >/dev/null); then
        failures+=("$name: the diff no longer applies; re-port it onto the code it mutates")
        continue
    fi
    (cd "$tree" && patch -p1 --batch --forward --fuzz=0 --silent <"$root/$entry" >/dev/null)
    if ! (cd "$tree" && $cmd --no-run) >"$log" 2>&1; then
        failures+=("$name: the mutant does not build (see $log)")
    elif (cd "$tree" && $cmd) >>"$log" 2>&1; then
        failures+=("$name: survived, \`$cmd\` passes with the diff applied (see $log)")
    else
        echo "   killed by: $cmd"
        killed=$((killed + 1))
    fi
    (cd "$tree" && patch -p1 -R --batch --silent <"$root/$entry" >/dev/null)
done

for failure in "${failures[@]}"; do
    echo "FAIL: $failure" >&2
done
echo "mutants: ${#entries[@]} entries, $killed killed, ${#failures[@]} failed"
[ "${#failures[@]}" -eq 0 ]
