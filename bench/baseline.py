"""Run every workload at seeds 1 to 10 and summarise the metrics.

    python3 bench/baseline.py --out bench/baseline.json

Each run is ``bench/run.py`` in its own process with BENCHMARK.json's
``run_seconds``. For every end-to-end metric the summary holds the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, next to the metric's bound. One
traced run per workload, at the first seed, gives the per-layer values.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment "))
    return json.loads(lines[-1]), env


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": seconds, "seeds": SEEDS, "end_to_end": {}, "per_layer": {}}
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result, env = bench(name, seed, seconds, 0)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        summary["environment"] = env
        rows = summary["end_to_end"][name] = {}
        for k, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4)
            rows[k] = {"median": median, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / median, "bound": bounds[k]}
            print(f"  {k:24s} median {median:<12.5g} spread {rows[k]['spread']:.4f} "
                  f"bound {bounds[k]}", flush=True)
        result, _ = bench(name, SEEDS[0], seconds, 1)
        summary["per_layer"][name] = {k: m["value"] for k, m in result["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
