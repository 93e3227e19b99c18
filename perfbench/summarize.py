"""Run the benchmark over a set of seeds and summarise each metric's spread.

    python3 perfbench/summarize.py [--seeds 10] [--first-seed 1] \
        [--workloads verify scan mc] [--trace] [--out perfbench/results/X.json]

Run from the checkout root.  Each (workload, seed) is one `run.py` run of
`run_seconds` from BENCHMARK.json.  For every end-to-end metric it prints
the median over seeds, the quartiles as `statistics.quantiles(n=4)` gives
them, and the spread (q3 - q1) / median beside the metric's bound.  With
--trace it adds one traced run per workload (first seed) and records its
per-layer metrics.  --out writes everything, with the machine record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True,
    )
    detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return detail, result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    doc: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in seeds:
            detail, result = run_once(workload, seed, seconds, 0)
            doc["machine"] = detail["machine"]
            results.append(result)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        print(f"{workload}: {entry['failed']}/{entry['attempted']} operations failed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = summarise([r["metrics"][name]["value"] for r in results])
            s.update(unit=metric["unit"], bound=metric["bound"])
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] < metric["bound"] / 3 else "WIDE"
            print(f"  {name:12s} median {s['median']:.6g} {metric['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n={s['n']} "
                  f"spread {s['spread']:.4f} (bound {metric['bound']}) {flag}")
        if args.trace:
            _, result = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
        doc["workloads"][workload] = entry

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
