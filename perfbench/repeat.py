"""Run one workload over several seeds and summarise each metric's spread.

From the repository root:

  python3 perfbench/repeat.py --workload simulate --seeds 1-10 --trace 0 \\
      --out perfbench/baseline/simulate.json

Runs run.py once per seed, one after another, for the run_seconds of
BENCHMARK.json unless --seconds is given.  For every metric it reports
the median, the quartiles from statistics.quantiles(values, n=4), and the
spread: (q3 - q1) / median, and the same for the raw seconds, before
they are divided by the host factor.  The output file keeps every run's
result line, machine metadata, host factors and raw median op and set-up
seconds.
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


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run.py exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        record = ROOT / ".bench_build" / "perfbench" / "results" / (
            f"{args.workload}-seed{seed}-trace{args.trace}.json")
        record = json.loads(record.read_text())
        plain = [op["s"] for op in record["ops"] if not op["traced"]]
        runs.append({"seed": seed, "result": result, "metadata": record["metadata"],
                     "host_factor": record["host_factor"],
                     "raw": {"op_s_p50": statistics.median(plain),
                             "setup_s": statistics.median(record["setup_s"])}})
        meta = record["metadata"]
        shown = "" if args.trace else "  ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: ops {meta['ops']}  {shown}", flush=True)

    names = runs[0]["result"]["metrics"]
    metrics = {}
    for name, first in names.items():
        metrics[name] = summary([r["result"]["metrics"][name]["value"] for r in runs])
        metrics[name]["unit"] = first["unit"]
        s = metrics[name]
        spread = f"{s['spread']:.4f}" if s["spread"] is not None else "n/a"
        print(f"{name:32s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}")
    raw = {name: summary([r["raw"][name] for r in runs]) for name in runs[0]["raw"]}
    for name, s in raw.items():
        print(f"raw {name:28s} median {s['median']:.6g} s  spread {s['spread']:.4f}")
    if args.out:
        out = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
               "metrics": metrics, "raw": raw, "runs": runs}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
