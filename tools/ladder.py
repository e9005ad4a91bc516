"""Time pgcache end to end, before and after a change, in one session.

From the repository root:

  python3 tools/ladder.py --before HEAD --pairs 5 --out BENCH_N.json
  python3 tools/ladder.py --before HEAD --pairs 10 --perfbench simulate \\
      --seeds 2601 --out BENCH_N.json

Two trees are run: before, the commit --before exported with git
archive, and after, the working tree (its tracked and untracked files
that git does not ignore).  They sit side by side under
.bench_build/ladder, in directories of the same name length, because the
length of a checkout's path can move a peak.

Without --perfbench the tool runs the ladder: for each instance of
LADDER, `pgcache construct`, then each of its `pgcache simulate` cases
on the document that construct wrote in the same tree.  Every command is
a fresh process, spawned by a small launcher process (LAUNCHER); its wall
time runs from the spawn to its exit, and its peak RSS is the ru_maxrss
that wait4 returns for it.
With --perfbench W, each pair instead runs `perfbench/run.py --workload
W` once in each tree, one seed per pair, for the run_seconds of
BENCHMARK.json, and keeps the result line.

Pair i runs the before tree first when i is even and the after tree
first when it is odd, case by case, so drift over the session falls on
both trees alike.  After every process the host probe of
perfbench/workloads.py is timed three times in this process, and the
median over the probe time of a host factor of 1 (perfbench/run.py's
HOST_REF_S) is kept as the run's host factor.

The output file has one fixed layout, "pgcache-bench/1":

  {"layout", "machine", "sections": {name: section}}

The ladder's section is "ladder"; a perfbench section is named
"perfbench <workload> trace <0|1>".  A section holds its command, the
trees (revision, commit, sha256 of src/), every run, and a summary.  The
file is rewritten after every pair; a section that this invocation runs
replaces its namesake, and other sections in the file are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from run import HOST_REF_S  # noqa: E402
from workloads import HostProbe  # noqa: E402

LAYOUT = "pgcache-bench/1"
RUN_TIMEOUT_S = 900
WORK = ROOT / ".bench_build" / "ladder"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

# The north-star instances: construct flags, then the simulate cases
# run on the document that construct writes.
LADDER = {
    "3,1,1,2": ([], [["--trials", "1"]]),
    "6,3,2,2": ([], [["--trials", "1"], ["--trials", "100"]]),
    "4,1,1,3": ([], [["--trials", "1"]]),
    "4,2,1,4": ([], [["--trials", "1"], ["--trials", "3"]]),
    "5,2,1,3": (["--cap", "100000000"], [["--trials", "1", "--subfile-len", "16"]]),
}
TREES = {"before": "old", "after": "new"}  # directory names of one length
PERFBENCH_METRICS = {"ops_per_s": "higher", "op_s_p50": "lower", "setup_s": "lower",
                     "peak_rss_mb": "lower"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def export_tree(rev: str | None, dest: Path) -> dict:
    """Write the files of commit `rev`, or of the working tree when rev is
    None, to dest; return what names the tree."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev is None:
        for name in git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
            if name and (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        tree = {"rev": "working tree", "commit": git("rev-parse", "HEAD"),
                "note": "the working tree on top of this commit"}
    else:
        archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
        if archive.wait() != 0:
            raise SystemExit(f"git archive {rev} failed")
        tree = {"rev": rev, "commit": git("rev-parse", rev)}
    h = hashlib.sha256()
    for path in sorted((dest / "src").rglob("*.py")):
        h.update(str(path.relative_to(dest)).encode())
        h.update(path.read_bytes())
    tree["src_sha256"] = h.hexdigest()
    return tree


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)),
            "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__}


# Every timed command is started by this small process, which reports
# the command's wall time, ru_maxrss and exit code.  A child's ru_maxrss
# starts from the peak RSS of the process that spawned it, and this one
# stays near 10 MiB where the driver, which holds numpy, is far larger.
LAUNCHER = """\
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as out:
    out.write(f"{wall} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}")
"""


def timed(cmd: list[str], cwd: Path, env: dict, probe: HostProbe) -> dict:
    """Run cmd to its exit; its wall time, wait4 peak RSS, exit code and
    stdout, then the host factor probed right after it."""
    report = cwd / ".ladder_report"
    report.unlink(missing_ok=True)
    with open(cwd / ".ladder_stdout", "w+b") as out:
        launcher = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, str(report), *cmd],
                                    cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL,
                                    start_new_session=True)
        try:
            launcher.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.wait()
        out.seek(0)
        stdout = out.read()
    wall, maxrss, code = report.read_text().split() if report.exists() else ("nan", "0", "-9")
    factor = statistics.median(probe() for _ in range(3)) / HOST_REF_S
    return {"wall_s": round(float(wall), 4), "peak_rss_mib": round(int(maxrss) / 1024, 1),
            "exit": int(code), "host_factor": round(factor, 4),
            "stdout_sha256": hashlib.sha256(stdout).hexdigest()[:16], "stdout": stdout}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def compare(runs: list[dict], key: str, better: str) -> dict:
    """Both trees' spread of runs[...][key], and the pairs the after tree won."""
    by_tree = {tree: [r for r in runs if r["tree"] == tree] for tree in TREES}
    pairs = {}
    for tree, rs in by_tree.items():
        for r in rs:
            pairs.setdefault(r["pair"], {})[tree] = r[key]
    whole = [p for p in pairs.values() if len(p) == 2]
    sign = 1 if better == "higher" else -1
    before = spread([r[key] for r in by_tree["before"]]) if by_tree["before"] else None
    after = spread([r[key] for r in by_tree["after"]]) if by_tree["after"] else None
    summary = {"better": better, "before": before, "after": after, "pairs": len(whole),
               "after_better_pairs": sum(sign * (p["after"] - p["before"]) > 0 for p in whole)}
    if before and after:
        summary["median_gap"] = sign * (after["median"] - before["median"])
        summary["before_quartile_spread"] = before["q3"] - before["q1"]
    return summary


def ladder_cases() -> list[tuple[str, str, list[str]]]:
    """(case name, instance, pgcache arguments), DOC standing for the document."""
    cases = []
    for name, (construct_flags, simulations) in LADDER.items():
        k, m, t, q = name.split(",")
        cases.append((f"construct {name}", name, ["construct", "-k", k, "-m", m, "-t", t,
                                                  "-q", q, "-o", "DOC", *construct_flags]))
        for flags in simulations:
            cases.append((f"simulate {name} {' '.join(flags)}", name, ["simulate", "DOC", *flags]))
    return cases


def run_ladder(args, trees: dict[str, Path], section: dict, probe: HostProbe, save) -> None:
    cases = ladder_cases()
    section["cases"] = {name: {"argv": ["pgcache", *argv], "runs": []} for name, _, argv in cases}
    section["documents"] = {}
    for pair in range(args.pairs):
        order = list(TREES) if pair % 2 == 0 else list(TREES)[::-1]
        for name, instance, argv in cases:
            for tree in order:
                root = trees[tree]
                doc = root / f"ladder-{instance.replace(',', '_')}.json"
                env = dict(os.environ, PYTHONPATH=str(root / "src"))
                cmd = [sys.executable, "-c", "import sys; from pgcache.cli import main; "
                       "sys.exit(main())", *[str(doc) if a == "DOC" else a for a in argv]]
                result = timed(cmd, root, env, probe)
                del result["stdout"]
                result.update(pair=pair, tree=tree)
                if argv[0] == "construct":
                    digest = None
                    if doc.exists():  # in chunks: a whole document would raise the driver's peak
                        with open(doc, "rb") as fh:
                            digest = hashlib.file_digest(fh, "sha256").hexdigest()
                    result["document_sha256"] = digest
                    seen = section["documents"].setdefault(instance, {t: [] for t in TREES})
                    if digest not in seen[tree]:
                        seen[tree].append(digest)
                section["cases"][name]["runs"].append(result)
                print(f"pair {pair} {tree:6s} {name:36s} {result['wall_s']:8.3f} s "
                      f"{result['peak_rss_mib']:8.1f} MiB exit {result['exit']}", flush=True)
        for name, case in section["cases"].items():
            case["summary"] = {"wall_s": compare(case["runs"], "wall_s", "lower"),
                               "peak_rss_mib": compare(case["runs"], "peak_rss_mib", "lower"),
                               "exits": sorted({r["exit"] for r in case["runs"]})}
        for seen in section["documents"].values():
            seen["same"] = len(set(seen["before"] + seen["after"])) == 1
        save()


def run_perfbench(args, trees: dict[str, Path], section: dict, probe: HostProbe,
                  save) -> None:
    section["runs"] = []
    for pair in range(args.pairs):
        seed = args.seeds + pair
        order = list(TREES) if pair % 2 == 0 else list(TREES)[::-1]
        for tree in order:
            root = trees[tree]
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.perfbench,
                   "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                   "--trace", str(args.trace)]
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            result = timed(cmd, root, env, probe)
            lines = result.pop("stdout").decode().strip().splitlines()
            line = json.loads(lines[-1]) if result["exit"] in (0, 1) and lines else {}
            result.update(pair=pair, tree=tree, seed=seed, correct=line.get("correct"),
                          attempted=line.get("attempted"), failed=line.get("failed"))
            result.update({k: m["value"] for k, m in line.get("metrics", {}).items()})
            section["runs"].append(result)
            print(f"pair {pair} {tree:6s} seed {seed} exit {result['exit']} "
                  + " ".join(f"{k}={result.get(k, float('nan')):.4g}"
                             for k in PERFBENCH_METRICS), flush=True)
        metrics = PERFBENCH_METRICS if not args.trace else {
            k: "higher" if k.endswith(("gbps", "coverage")) else "lower"
            for k in section["runs"][0] if "." in k}
        section["metrics"] = {k: compare(section["runs"], k, better)
                              for k, better in metrics.items()
                              if all(k in r for r in section["runs"])}
        section["all_correct"] = all(r["correct"] for r in section["runs"])
        save()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="commit of the before tree")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--perfbench", default=None, metavar="WORKLOAD",
                        help="run perfbench pairs of this workload instead of the ladder")
    parser.add_argument("--seeds", type=int, default=1, help="perfbench seed of pair 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees, described = {}, {}
    for tree, rev in (("before", args.before), ("after", None)):
        trees[tree] = WORK / TREES[tree]
        described[tree] = export_tree(rev, trees[tree])
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if doc.get("layout") not in (None, LAYOUT):
        raise SystemExit(f"{args.out} has layout {doc['layout']!r}, not {LAYOUT!r}")
    doc["layout"] = LAYOUT
    doc["machine"] = machine()
    sections = doc.setdefault("sections", {})
    if args.perfbench:
        name = f"perfbench {args.perfbench} trace {args.trace}"
        command = (f"python3 perfbench/run.py --workload {args.perfbench} --seed S "
                   f"--seconds {RUN_SECONDS:g} --trace {args.trace}")
    else:
        name, command = "ladder", ("python3 -c 'import sys; from pgcache.cli import main; "
                                   "sys.exit(main())' ARGV, with PYTHONPATH=TREE/src")
    section = sections[name] = {"command": command, "tool_argv": sys.argv[1:],
                                "trees": described, "pairs_asked": args.pairs,
                                "host_ref_s": HOST_REF_S}

    def save() -> None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    probe = HostProbe()
    if args.perfbench:
        run_perfbench(args, trees, section, probe, save)
    else:
        run_ladder(args, trees, section, probe, save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
