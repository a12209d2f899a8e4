#!/usr/bin/env bash
# Lints for the harness: formatting, clippy, the workspace's own
# determinism lint (D001/D003/D004/A001 bind on src/bin/), and that the
# harness emits exactly the metrics BENCHMARK.json names.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo fmt --check
cargo clippy --all-targets --offline --locked -- -D warnings
cargo build --release --offline --locked
mkdir -p out
out=$(mktemp -d "$PWD/out/check.XXXXXX")
trap 'rm -rf "$out"' EXIT
for trace in 0 1; do
    for w in steady_serial steady_pooled grow_wide storm_event; do
        "$CARGO_TARGET_DIR/release/step_anatomy" --workload "$w" --quick --trace "$trace" \
            --out-dir "$out" 2>/dev/null | tail -n 1 |
            python3 -c '
import json, sys
trace, workload = int(sys.argv[1]), sys.argv[2]
bench = json.load(open("../BENCHMARK.json"))
want = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
line = json.loads(sys.stdin.read())
assert sorted(line) == ["attempted", "correct", "failed", "metrics"], sorted(line)
got = list(line["metrics"])
assert sorted(got) == sorted(want), (workload, set(got) ^ set(want))
units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
assert all(line["metrics"][n]["unit"] == units[n] for n in got), workload
' "$trace" "$w"
    done
done
echo "metric names and units match BENCHMARK.json"
cd ..
CARGO_TARGET_DIR=target cargo run -p now-lint --release --offline -- --workspace
