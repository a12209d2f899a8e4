#!/usr/bin/env bash
# The one command: builds the harness, runs every workload untraced and
# then traced (one process each, one after the other), prints every
# end-to-end and per-layer metric by name with unit and sample count,
# writes bench/out/results.json, and exits non-zero on any failed check.
#
#   bench/run.sh [--seed N] [--workload NAME] [--seconds S] [--quick]
#                [--expect-digest HEX]
#
# --seconds defaults to BENCHMARK.json's run_seconds. --quick runs a
# twentieth of the steps: a smoke test whose numbers are never compared.
# The traced run of a workload is told the untraced run's state digest
# and fails if its own differs; --expect-digest replaces that digest
# (with a wrong one, this shows a failing check end to end).
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=(steady_serial steady_pooled grow_wide storm_event)
quick=()
expect=""
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --workload) workloads=("$2"); shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --quick) quick=(--quick); shift ;;
        --expect-digest) expect=$2; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline --locked --manifest-path bench/Cargo.toml
harness="$CARGO_TARGET_DIR/release/step_anatomy"
out=bench/out
mkdir -p "$out"

status=0
files=()
for w in "${workloads[@]}"; do
    common=(--workload "$w" --seed "$seed" --seconds "$seconds" --out-dir "$out" "${quick[@]}")
    "$harness" "${common[@]}" --trace 0 >/dev/null || status=1
    files+=("$out/$w.e2e.json")
    digest=${expect:-$(sed -n 's/.*"digest": *"\([0-9a-f]*\)".*/\1/p' "$out/$w.e2e.json")}
    "$harness" "${common[@]}" --trace 1 --expect-digest "$digest" >/dev/null || status=1
    files+=("$out/$w.layers.json")
    # The attribution method's self-check: the serial engine adds nothing
    # to the serial kernels, so its residual must read 0 ± 0.15. It
    # compares two timings, so it is checked here, on a quiet box, and
    # not by the harness, whose exit code must not depend on the clock.
    if [ "$w" = steady_serial ] && [ ${#quick[@]} -eq 0 ]; then
        python3 - "$out/$w.layers.json" <<'PY' || status=1
import json, sys
r = json.load(open(sys.argv[1]))["metrics"]["attr.residual_share"]["value"]
if abs(r) > 0.15:
    sys.exit(f"CHECK FAILED: attr.residual_share {r:.3f} on steady_serial is outside ±0.15")
PY
    fi
done

{
    printf '{"seed": %s, "seconds": %s, "quick": %s, "runs": [\n' \
        "$seed" "$seconds" "$([ ${#quick[@]} -gt 0 ] && echo true || echo false)"
    sep=""
    for f in "${files[@]}"; do
        printf '%s' "$sep"
        tr -d '\n' <"$f"
        sep=$',\n'
    done
    printf '\n]}\n'
} >"$out/results.json"
echo "# wrote $out/results.json" >&2
if [ "$status" -ne 0 ]; then
    echo "# bench/run.sh: at least one check FAILED" >&2
fi
exit "$status"
