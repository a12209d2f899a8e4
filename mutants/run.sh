#!/usr/bin/env bash
# Runs the mutant catalog: every mutants/*.patch is a small defect, and
# the tests its header names must catch it.
#
# A patch starts with a header and then a unified diff against the
# repository root:
#   # Breaks: <what the defect breaks>
#   # Test: <package> <cargo test target flags> <exact test name>
# (one `# Test:` line per test that must catch it). Every test named
# must fail with the patch applied.
#
# The script checks out the tree as it stands (tracked files, committed
# or not) into a scratch git worktree under $TMPDIR, runs every named
# test there once unmutated (each must pass), then for each patch
# applies it, runs only its named tests, and reverts it. Builds go to
# one shared CARGO_TARGET_DIR ($TMPDIR/now-mutants-target unless set),
# offline. It exits nonzero, naming the mutant, if any mutant survives,
# any patch stops applying, or a named test does not run or fails
# unmutated.
#
# Usage: mutants/run.sh
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
repo=$(git -C "$here" rev-parse --show-toplevel)
tmp=${TMPDIR:-/tmp}
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$tmp/now-mutants-target}
scratch=$(mktemp -d "$tmp/now-mutants.XXXXXX")
tree=$scratch/tree
cleanup() {
    git -C "$repo" worktree remove --force "$tree" >/dev/null 2>&1 || true
    git -C "$repo" worktree prune
    rm -rf "$scratch"
}
trap cleanup EXIT

# `stash create` records the working tree as a commit without touching
# it or any ref; it prints nothing when the tree is clean.
base=$(git -C "$repo" stash create)
git -C "$repo" worktree add --quiet --detach "$tree" "${base:-HEAD}"

# run_test <package> <target flags...> <name>: runs one test in the
# worktree; prints `ok`, `FAILED` or `missing`, and the test's panic
# message on failure.
run_test() {
    local pkg=$1 name=${*: -1} flags=("${@:2:$#-2}") out
    out=$(cd "$tree" && cargo test --offline -p "$pkg" "${flags[@]}" -- --exact "$name" 2>&1 || true)
    if grep -qF "test $name ... ok" <<<"$out"; then
        echo ok
    elif grep -qF "test $name ... FAILED" <<<"$out"; then
        echo FAILED
        awk '/panicked at/ { getline; print "    " $0 }' <<<"$out"
    else
        echo missing
        tail -n 20 <<<"$out" | sed 's/^/    /'
    fi
}

tests_of() { sed -n 's/^# Test: //p' "$1"; }

patches=("$here"/*.patch)
failures=()

echo "== unmutated: every named test must pass"
while read -r spec; do
    # shellcheck disable=SC2086 # the spec is words: package, flags, name
    result=$(run_test $spec)
    echo "$spec: $result"
    [[ $result == ok ]] || failures+=("unmutated: $spec")
done < <(for p in "${patches[@]}"; do tests_of "$p"; done | sort -u)

for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    echo "== $name: $(sed -n 's/^# Breaks: //p' "$patch")"
    if ! git -C "$tree" apply "$patch"; then
        echo "$name: does not apply"
        failures+=("$name: does not apply")
        continue
    fi
    while read -r spec; do
        # shellcheck disable=SC2086
        result=$(run_test $spec)
        if [[ $result == FAILED* ]]; then
            echo "caught by $spec"
            tail -n +2 <<<"$result"
        else
            echo "SURVIVED $spec: $result"
            failures+=("$name: survived $spec")
        fi
    done < <(tests_of "$patch")
    git -C "$tree" checkout --quiet -- .
done

if ((${#failures[@]})); then
    printf 'mutants: FAIL: %s\n' "${failures[@]}"
    exit 1
fi
echo "mutants: all ${#patches[@]} caught"
