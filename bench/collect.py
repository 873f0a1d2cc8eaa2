"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/collect.py [--out FILE]

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed 1..10,
one process at a time, with the ``run_seconds`` from BENCHMARK.json, then
one traced run per workload with seed 1. For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, next to the metric's bound. ``--out`` writes the summary, the
per-layer numbers and the machine record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    ok = True
    for wl in names:
        values: dict[str, list[float]] = {}
        for seed in range(1, SEEDS + 1):
            result, human = run_once(wl, seed, spec["run_seconds"], 0)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        machine = json.loads(human[0].split(":", 1)[1])
        entry: dict = {"end_to_end": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                         "values": vals}
            print(f"  {wl:10s} {name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {spread:.3f}  bound {bounds[name]}", flush=True)
        result, _ = run_once(wl, 1, spec["run_seconds"], 1)
        ok &= result["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][wl] = entry
    summary["machine"] = machine
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
