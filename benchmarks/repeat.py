"""Run the benchmark on several seeds and summarise each end-to-end metric.

Run from the repository root:

    python3 benchmarks/repeat.py --seeds 1-10 [--workloads cli-mix,...] [--baseline]

For every workload and metric it prints the median, the quartiles (from
``statistics.quantiles(values, n=4)``) and their distance as a share of the
median.  ``--baseline`` writes the medians, with the metadata of the runs, to
``benchmarks/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        meta = None
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600, check=False,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            meta = meta or json.loads(next(l for l in lines if l.startswith("meta: "))[6:])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(vals), "values": vals}
            print(f"{workload:16s} {name:12s} median {rows[name]['median']:10.4g} "
                  f"spread {rows[name]['spread']:.3f}", flush=True)
        summary[workload] = {"meta": {k: meta[k] for k in ("commit", "src_sha256", "python", "nproc")},
                             "seeds": args.seeds, "seconds": args.seconds, "metrics": rows}
    if args.baseline:
        (HERE / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
