"""pgcache benchmark: run one workload and print its metrics.

From the repository root:

  python3 perfbench/run.py --workload construct-gf2 --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py):

  construct-gf2  build (k,m,t,q) = (6,3,2,2), serialize, write; GF(2) bit path
  construct-gfq  the same on (4,2,1,3); generic GF(q) tuple path
  simulate       seeded demand rounds on the (6,3,2,2) document, L = 64:
                 encode, then decode every user and compare byte for byte

Each workload runs in fresh processes started from here, one at a time:
the timed process runs ops in a closed loop with one client.  set-up is
the wall time from starting a process to its first op (imports included;
for simulate also reading and loading the document and filling the
store), measured over SETUP_SAMPLES processes and reported as the median.

Times are reported in reference seconds.  This machine's speed drifts
by tens of percent over minutes, so every process also times a fixed
probe kernel (workloads.HostProbe), and each time is divided by a host
factor: the median time of the probes taken beside it (after each op
for op times, in the set-up processes for set-up times) over
HOST_REF_S.  The raw seconds and the factors are kept in the record.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics: spans recorded around the calls into each layer, a separate
tracemalloc pass for per-span peaks, counts taken at the same calls, and
the tracing overhead against untraced ops interleaved with the traced
ones in the same run.  A span a workload does not run reports 0.

Every op is checked (document digest, decode equality, packet count),
and every run checks the round-0 trace digest (simulate) and the traced
counts against the closed forms.  Any failure makes `correct` false and
the exit code 1.  The full record of a run, with its spans and machine
metadata, is written under .bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from spans import coverage, median_durations, now, peak_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 5
DEADLINE_S = 170
# Median HostProbe time on the reference machine (2 vCPU Intel Xeon at
# 2.0 GHz, Python 3.11, numpy 2.4): the probe time of a host factor of 1.
HOST_REF_S = 0.033

SPANS = (
    "linegraph.universe", "linegraph.line_graph", "linegraph.verify",
    "scheme.placement", "linegraph.cliques", "scheme.serialize", "cli.write",
    "cli.read", "scheme.deserialize", "scheme.store",
    "scheme.encode", "scheme.decode",
)
COUNTS = (
    "linegraph.users", "linegraph.subfiles", "linegraph.vertices",
    "linegraph.cliques", "scheme.doc_bytes", "scheme.packets",
)


class BenchError(RuntimeError):
    """A benchmark process failed before it could report."""


def child(role: str, args, deadline: float) -> tuple[dict, float]:
    """Run one workload process; return its report and its start time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(WORK)]
    start = now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} process passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), start


def host_factors(run: dict, setups: list[dict]) -> tuple[float, float]:
    """Host factors of the timed ops and of set-up, each from the probes
    taken beside them, since the host can change from one to the other."""
    ops = statistics.median(op["host_s"] for op in run["ops"]) / HOST_REF_S
    setup = statistics.median(x for r in setups for x in r["host_s"]) / HOST_REF_S
    return ops, setup


def end_to_end(run: dict, setup_s: list[float], op_f: float,
               setup_f: float) -> dict[str, tuple[float, str]]:
    ok = sum(1 for op in run["ops"] if not op["errors"])
    busy = sum(op["s"] for op in run["ops"])
    return {
        "ops_per_s": (ok / busy * op_f, "1/s"),
        "op_s_p50": (statistics.median(op["s"] for op in run["ops"]) / op_f, "s"),
        "setup_s": (statistics.median(setup_s) / setup_f, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(run: dict, setups: list[dict], memory: dict, op_f: float,
              setup_f: float) -> dict[str, tuple[float, str]]:
    setup_spans = [s for r in setups for s in r["spans"]]
    setup_spans += [s for s in run["spans"] if s["op"] == "setup"]
    op_spans = [s for s in run["spans"] if s["op"] != "setup"]
    times = {k: v / setup_f for k, v in median_durations(setup_spans).items()}
    times.update({k: v / op_f for k, v in median_durations(op_spans).items()})
    peaks = peak_bytes(memory["spans"])
    out: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        out[f"{name}.s_p50"] = (times.get(name, 0.0), "s")
        out[f"{name}.peak_mb"] = (peaks.get(name, 0) / 1e6, "MB")
    counts = run["counts"]
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    for layer in ("encode", "decode"):
        moved = counts.get(f"scheme.{layer}_bytes", 0)
        secs = times.get(f"scheme.{layer}", 0.0)
        out[f"scheme.{layer}_bytes"] = (moved, "B")
        out[f"scheme.{layer}_gbps"] = (moved / secs / 1e9 if secs else 0.0, "GB/s")
    traced = [op["s"] for op in run["ops"] if op["traced"]]
    plain = [op["s"] for op in run["ops"] if not op["traced"]]
    overhead = (statistics.median(traced) - statistics.median(plain)) / op_f
    out["bench.trace_overhead_s"] = (overhead, "s")
    out["bench.span_coverage"] = (coverage(run["spans"]), "ratio")
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD when the checkout is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the package sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args, run: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(run["ops"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": run["python"],
        "numpy": run["numpy"],
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def summarize(args, run: dict, setups: list[dict], setup_s: list[float],
              memory: dict | None) -> tuple[dict, dict]:
    """The result line and the full record of one run."""
    ops = run["ops"] + (memory["ops"] if memory else [])
    checks = [op["errors"] for op in ops] + run["checks"]
    attempted = len(checks)
    failed = sum(1 for errors in checks if errors)
    op_f, setup_f = host_factors(run, setups)
    if args.trace:
        metrics = per_layer(run, setups, memory, op_f, setup_f)
    else:
        metrics = end_to_end(run, setup_s, op_f, setup_f)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "metadata": metadata(args, run),
        "result": line,
        "errors": [e for errors in checks for e in errors],
        "host_factor": {"ops": op_f, "setup": setup_f},
        "host_s": {"run": [op["host_s"] for op in run["ops"]],
                   "setup": [r["host_s"] for r in setups]},
        "setup_s": setup_s,
        "ops": ops,
        "counts": run["counts"],
        "spans": {"run": run["spans"],
                  "setup": [r["spans"] for r in setups],
                  "memory": memory["spans"] if memory else []},
    }
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pgcache benchmark, one workload per run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pgcache" / "__init__.py").is_file():
        print(f"error: no pgcache sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = now() + DEADLINE_S
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        child("prepare", args, deadline)
        setups, setup_s = [], []
        for _ in range(SETUP_SAMPLES - 1):
            report, start = child("setup", args, deadline)
            setups.append(report)
            setup_s.append(report["ready"] - start)
        run, start = child("run", args, deadline)
        setup_s.append(run["ready"] - start)
        memory = child("memory", args, deadline)[0] if args.trace else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    line, record = summarize(args, run, setups, setup_s, memory)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    meta = record["metadata"]
    print(f"workload {args.workload}  seed {args.seed}  ops {meta['ops']}  "
          f"nproc {meta['nproc']}  python {meta['python']}  numpy {meta['numpy']}")
    print(f"error_rate = {line['failed'] / line['attempted']:.6g} "
          f"({line['failed']} failed of {line['attempted']} attempted)")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
