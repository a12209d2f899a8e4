#!/usr/bin/env bash
# Recomputes every trajectory pin and rewrites pins/pins.txt, printing
# `key: old → new` for each line it changes.
#
# pins/pins.txt holds one `<key> <value>` line per pin ('#' and blank
# lines are kept as they are). The script computes:
#   bench/<workload>/<seed>  the `# digest` of the bench/ harness at
#                            --seconds 5, seeds 1 and 2;
#   replay/… and wide/…      the `pin <key> <value>` lines that
#                            tests/per_step_replay.rs and
#                            tests/event_runtime.rs print for every
#                            case they run;
#   campaigns/<name>.json    the sha256 of x_campaign's report on each
#                            scenarios/ and tests/corpus/ file;
#   trace/<file>             the sha256 of each x_trace artifact.
#
# It exits nonzero and leaves the file alone if the harness or a binary
# exits nonzero, a test fails for any reason but a pin mismatch, an
# artifact is missing, or the keys computed are not exactly the file's
# keys. To add a pin, add its line with any value, then run the script.
# On an unchanged trajectory it changes nothing, so CI runs it and then
# `git diff --exit-code -- pins/pins.txt`.
#
# Usage: pins/repin.sh
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
file=$here/pins.txt
cd "$here/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
got=$tmp/got
: >"$got"

fail() {
    echo "repin: $*" >&2
    exit 1
}

for seed in 1 2; do
    for workload in steady_serial steady_pooled grow_wide storm_event; do
        log=$(cargo run --release --offline --locked --quiet --manifest-path bench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 5 --trace 0 \
            --out-dir "$tmp/bench" 2>&1 >/dev/null) ||
            fail "bench $workload seed $seed: the harness exited nonzero"
        digest=$(sed -n 's/^# digest \([0-9a-f]*\) .*/\1/p' <<<"$log")
        [[ -n $digest ]] || fail "bench $workload seed $seed: no digest"
        echo "bench/$workload/$seed $digest" >>"$got"
    done
done

# The marker is the first line of the pin check's panic message
# (tests/pins/mod.rs): the check runs last, so a failure that carries
# it is a pin mismatch, and any other failure is a failed test.
for spec in "per_step_replay per_step_strategies_replay_the_parent_commit" \
    "event_runtime wide_event_batches_replay_the_parent_commit"; do
    read -r target name <<<"$spec"
    if ! out=$(cargo test --release --offline --locked --quiet --test "$target" -- \
        --exact "$name" --show-output 2>&1) &&
        ! grep -qxF 'pins/pins.txt disagrees:' <<<"$out"; then
        printf '%s\n' "$out" | tail -n 30 >&2
        fail "$target $name failed before its pin check"
    fi
    sed -n 's/^pin \([^ ]*\) \([^ ]*\)$/\1 \2/p' <<<"$out" >>"$got"
done

mkdir "$tmp/campaigns"
for f in scenarios/*.campaign tests/corpus/*.campaign; do
    report=campaigns/$(basename "$f" .campaign).json
    [[ ! -e $tmp/$report ]] || fail "$f: a second campaign named $report"
    cargo run --release --offline --locked --quiet -p now-bench --bin x_campaign -- \
        "$f" --out "$tmp/$report" >/dev/null || fail "x_campaign $f exited nonzero"
    [[ -f $tmp/$report ]] || fail "x_campaign $f wrote no report"
done
cargo run --release --offline --locked --quiet -p now-bench --bin x_trace -- \
    --out-dir "$tmp/trace" >/dev/null || fail "x_trace exited nonzero"
(cd "$tmp" && sha256sum campaigns/* trace/*) | awk '{ print $2, $1 }' >>"$got"

awk '!/^(#|$)/ { print $1 }' "$file" | sort >"$tmp/want-keys"
cut -d' ' -f1 "$got" | sort >"$tmp/got-keys"
if ! cmp -s "$tmp/want-keys" "$tmp/got-keys"; then
    comm -23 "$tmp/want-keys" "$tmp/got-keys" | sed 's/^/no check produces /' >&2
    comm -13 "$tmp/want-keys" "$tmp/got-keys" | sed 's/^/no line for /' >&2
    fail "the keys computed are not the file's keys"
fi
uniq -d "$tmp/got-keys" | grep . >&2 && fail "the keys above were computed twice"
awk '!/^(#|$)/ && NF != 2' "$file" | grep . >&2 && fail "the lines above are not <key> <value>"

# Every line in place, with its value replaced; the changes on stdout.
awk -v changes="$tmp/changes" '
    NR == FNR { value[$1] = $2; next }
    /^(#|$)/ { print; next }
    {
        if ($2 != value[$1]) print $1 ": " $2 " → " value[$1] >changes
        print $1, value[$1]
    }' "$got" "$file" >"$tmp/pins.txt"
touch "$tmp/changes"
cat "$tmp/changes"
echo "repin: $(wc -l <"$tmp/changes") of $(wc -l <"$got") pins changed"
cat "$tmp/pins.txt" >"$file"
