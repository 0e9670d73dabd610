#!/usr/bin/env python3
"""Run the benchmark over many seeds, and compare two sets of results.

    python3 capbench/compare.py sweep --workload rm3_inproc --seeds 1-10 --out a.jsonl
    python3 capbench/compare.py compare a.jsonl b.jsonl

`sweep` runs the command in BENCHMARK.json once per seed (from the
repository root, with `run_seconds`) and appends one JSON line per run:
{"workload", "seed", "trace", "host", "result"}.

`compare` prints, for each workload and metric, each side's median and
quartiles (`statistics.quantiles(values, n=4)`), the spread (IQR over
median) of each side, and a verdict against the metric's bound:
  - "unresolved" when either side's spread is wider than the bound;
  - "agree" when the second median is not worse than the first by more
    than the bound (direction from BENCHMARK.json);
  - "WORSE" otherwise.
Per-layer metrics have no bound and are printed without a verdict. The
exit code is 1 when any bounded metric is WORSE or unresolved.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def sweep(args):
    bench = load_bench()
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-2000:])
                sys.exit(f"seed {seed}: exit {proc.returncode}")
            host = next((l[len("host: "):] for l in lines if l.startswith("host: ")), "{}")
            record = {
                "workload": args.workload, "seed": seed, "trace": args.trace,
                "host": json.loads(host), "result": json.loads(lines[-1]),
            }
            out.write(json.dumps(record) + "\n")
            out.flush()
            print(f"{args.workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in record["result"]["metrics"].items()))


def load_results(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            runs.setdefault(r["workload"], []).append(r["result"])
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / abs(q2) if q2 else float("inf")
    return q1, q2, q3, spread


def compare(args):
    bench = load_bench()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = load_results(args.first), load_results(args.second)
    bad = False
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in a or workload not in b:
            continue
        print(f"== {workload}: {len(a[workload])} vs {len(b[workload])} runs")
        names = [n for n in a[workload][0]["metrics"] if n in specs]
        for name in names:
            spec = specs[name]
            va = [r["metrics"][name]["value"] for r in a[workload] if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b[workload] if name in r["metrics"]]
            if not va or not vb:
                continue
            sa, sb = summary(va), summary(vb)
            line = (f"  {name:<28} A {sa[1]:>12.5g} [{sa[0]:.5g}, {sa[2]:.5g}] spread {sa[3]:.3f}"
                    f" | B {sb[1]:>12.5g} [{sb[0]:.5g}, {sb[2]:.5g}] spread {sb[3]:.3f}")
            bound = spec.get("bound")
            if bound is not None:
                if max(sa[3], sb[3]) > bound:
                    verdict = "unresolved"
                else:
                    worse = (sb[1] - sa[1]) / abs(sa[1]) if sa[1] else 0.0
                    if spec["better"] == "higher":
                        worse = -worse
                    verdict = "agree" if worse <= bound else "WORSE"
                bad |= verdict != "agree"
                line += f" | bound {bound} -> {verdict}"
            print(line)
    sys.exit(1 if bad else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    s.add_argument("--trace", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=sweep)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(func=compare)
    args = p.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
