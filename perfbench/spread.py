"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload star-sweep --seeds 1-5 [--out summary.json]

Spread is the distance between the first and third quartile of the values
(statistics.quantiles, n=4) as a share of their median, the figure each
end-to-end metric's bound in BENCHMARK.json is set against. Each run is an
untraced run of run_seconds from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None, help="also write the summary here as JSON")
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict = {}
    bad = 0
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        bad += not result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        bound = bounds[name]
        flag = f" bound {bound} ({'ok' if spread <= bound / 3 else 'WIDE'})"
        print(f"{name:26s} median {median:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
              f"spread {spread:7.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
