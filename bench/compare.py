#!/usr/bin/env python3
"""Compare two sets of bench/run.sh results against BENCHMARK.json's bounds.

    bench/compare.sh A.json[,A2.json,...] B.json[,B2.json,...]

A is the base (the parent commit), B the candidate. For every workload and
end-to-end metric it prints both values, the ratio B/A with its base, and a
verdict:

  within-bound  B is no worse than A by more than the metric's bound
  worse         B is worse than A by more than the bound
  unresolved    several files per side were given and A's own spread
                (interquartile range / median) exceeds the bound, unless
                every B run reads better than every A run
  exact / DIFFERS  for the simulated metrics, which must repeat exactly
                when both sides ran the same seed, steps and code

With several files per side the values are medians. The state digests and
every count-type per-layer metric are compared too when the seeds match.
Exit code 1 if any row is `worse` or `DIFFERS`.
"""
import json
import os
import statistics
import sys

SIMULATED = {"msgs_per_op", "rounds_per_step", "inv_ok_share", "op_ok_share"}


def load(paths):
    """{(workload, trace): [run, ...]} over all files of one side."""
    runs, headers = {}, []
    for path in paths.split(","):
        with open(path) as f:
            doc = json.load(f)
        headers.append((doc["seed"], doc["seconds"], doc["quick"]))
        for run in doc["runs"]:
            runs.setdefault((run["workload"], run["trace"]), []).append(run)
    return runs, headers


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    a_runs, a_head = load(sys.argv[1])
    b_runs, b_head = load(sys.argv[2])
    same_inputs = len(set(a_head + b_head)) == 1
    if any(h[2] for h in a_head + b_head):
        print("NOTE: --quick results are smoke only; do not compare them")
    if not same_inputs:
        print("NOTE: seeds/lengths differ between files; simulated metrics are not expected to match")

    bad = 0
    print(f"{'workload':14} {'metric':16} {'A':>16} {'B':>16}  B/A (base A)   verdict")
    for w in (x["name"] for x in bench["workloads"]):
        a, b = a_runs.get((w, 0)), b_runs.get((w, 0))
        if not a or not b:
            continue
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            av, bv = values(a, name), values(b, name)
            am, bm = statistics.median(av), statistics.median(bv)
            ratio = bm / am if am else float("nan")
            if name in SIMULATED and same_inputs:
                verdict = "exact" if av == bv else "DIFFERS"
            else:
                worse_by = (bm - am) / am if lower else (am - bm) / am
                verdict = "within-bound" if worse_by <= bound else "worse"
                if len(av) >= 4:
                    q = statistics.quantiles(av, n=4)
                    all_better = max(bv) < min(av) if lower else min(bv) > max(av)
                    if (q[2] - q[0]) / am > bound and not all_better:
                        verdict = "unresolved"
            bad += verdict in ("worse", "DIFFERS")
            print(
                f"{w:14} {name:16} {am:16.6g} {bm:16.6g}  {ratio:6.4f} ({am:.6g} {m['unit']})  "
                f"{verdict} (bound {bound:g})"
            )

    if same_inputs:
        for key in sorted(set(a_runs) & set(b_runs)):
            ra, rb = a_runs[key][0], b_runs[key][0]
            diffs = [] if ra["digest"] == rb["digest"] else ["state digest"]
            diffs += [
                n
                for n, v in ra["metrics"].items()
                if v["unit"] == "count" and rb["metrics"].get(n, {}).get("value") != v["value"]
            ]
            kind = "layers" if key[1] else "e2e"
            print(f"{key[0]:14} {kind:6} digest and count metrics:", "exact" if not diffs else f"DIFFER: {', '.join(diffs)}")
            bad += bool(diffs)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
