"""Workload processes of the pgcache benchmark.

run.py starts this file as a fresh process for each role:

  prepare  write the scheme document that the simulate workload reads
  setup    set up, note when the first op could start, and exit
  run      set up, then run ops in a closed loop: one client, no threads
  memory   set up and run one op under tracemalloc, for per-span peaks

The last line of stdout is one JSON object for run.py.  PYTHONPATH must
put the repository's ``src`` first; the process refuses any other pgcache.

Ops call the package as ``pgcache construct`` and ``pgcache simulate``
do.  Traced construct ops call the same ``build_scheme``, with its steps
wrapped in spans for the length of the op.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import sys
import tracemalloc
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pgcache
from pgcache import scheme as scheme_module
from pgcache.linegraph import DEFAULT_VERTEX_CAP, ConstructionParams
from pgcache.scheme import (
    FileStore,
    build_scheme,
    decode_round,
    demand_stream,
    deserialize,
    packet_trace_bytes,
    params_from,
    run_round,
    serialize,
)

from spans import Recorder, now

ROOT = Path(__file__).resolve().parent.parent
SUBFILE_LEN = 64  # the `pgcache simulate` default
REF_SEED = 0      # seed of the round whose packet trace digest is recorded


@dataclass(frozen=True)
class Construct:
    """Build one instance and write its document, as `pgcache construct`."""

    name: str
    kmtq: tuple[int, int, int, int]
    doc_sha256: str
    doc_bytes: int


@dataclass(frozen=True)
class Simulate:
    """Delivery rounds on the document of `scheme`, as `pgcache simulate`."""

    name: str
    scheme: Construct
    trace_sha256: str  # round 0 of REF_SEED, as `simulate --trace` writes it


# Digests recorded from the unmodified package.  Every later commit must
# reproduce them byte for byte.
GF2 = Construct(
    "construct-gf2", (6, 3, 2, 2),
    "3cff126d2c234bc0999a65428f6bac8ff6bff293c5d80ef60093b7f0fb04a492", 4904385)
GFQ = Construct(
    "construct-gfq", (4, 2, 1, 3),
    "0cadee06a6f5c449db94c427cc0a8bde5eff3ccdf16ae07a3e1bb0dab578fb84", 2719661)
WORKLOADS = {w.name: w for w in (
    GF2,
    GFQ,
    Simulate("simulate", GF2,
             "9af205d3308ae460d7348b013b1b7f9082ea7996f18edd034ef6a7ad26966cee"),
)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def closed_form_counts(cp: ConstructionParams) -> dict[str, int]:
    transmissions = params_from(cp).transmissions
    return {
        "linegraph.users": cp.num_users,
        "linegraph.subfiles": cp.subpacketization,
        "linegraph.vertices": cp.vertex_count,
        "linegraph.cliques": transmissions,
        "scheme.packets": transmissions,
    }


def count_errors(counts: dict[str, int], expected: dict[str, int]) -> list[str]:
    return [f"count {name} = {counts[name]}, closed form {want}"
            for name, want in expected.items()
            if name in counts and counts[name] != want]


# ----------------------------------------------------------------------
# construct-*
# ----------------------------------------------------------------------

# The steps of build_scheme, which it looks up as globals of pgcache.scheme
# at call time: the span each runs in, and the counts taken from its result.
BUILD_STEPS = {
    "build_universe": ("linegraph.universe", lambda u: {
        "linegraph.users": u.num_users, "linegraph.subfiles": u.subpacketization}),
    "build_line_graph": ("linegraph.line_graph", lambda g: {
        "linegraph.vertices": sum(len(xs) for xs in g.user_cliques)}),
    "verify_line_graph": ("linegraph.verify", lambda _: {}),
    "build_placement": ("scheme.placement", lambda _: {}),
    "enumerate_transmission_cliques": ("linegraph.cliques", lambda c: {
        "linegraph.cliques": c.num_cliques}),
}


def _traced_step(fn, span: str, counts, rec: Recorder, op: str):
    def step(*args, **kwargs):
        with rec.span(span, op):
            out = fn(*args, **kwargs)
        for name, value in counts(out).items():
            rec.count(name, value)
        return out
    return step


@contextmanager
def build_steps_traced(rec: Recorder, op: str):
    """Within the block, build_scheme runs each of its steps in a span.

    A step that pgcache.scheme no longer has is left out; its span then
    reports 0.
    """
    saved = {name: getattr(scheme_module, name) for name in BUILD_STEPS
             if hasattr(scheme_module, name)}
    for name, fn in saved.items():
        span, counts = BUILD_STEPS[name]
        setattr(scheme_module, name, _traced_step(fn, span, counts, rec, op))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(scheme_module, name, fn)


def construct(cp: ConstructionParams, path: Path, rec: Recorder, op: str) -> str:
    """One `pgcache construct`: build, serialize, write; returns the text."""
    if rec.enabled:
        with build_steps_traced(rec, op):
            instance = build_scheme(cp, max_vertices=DEFAULT_VERTEX_CAP)
    else:
        instance = build_scheme(cp, max_vertices=DEFAULT_VERTEX_CAP)
    with rec.span("scheme.serialize", op):
        text = serialize(instance)
    rec.count("scheme.doc_bytes", len(text))
    with rec.span("cli.write", op):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text


def document_errors(spec: Construct, text: str) -> list[str]:
    digest = sha256(text.encode("ascii"))
    if digest != spec.doc_sha256 or len(text) != spec.doc_bytes:
        return [f"{spec.name}: document sha256 {digest} ({len(text)} bytes), "
                f"expected {spec.doc_sha256} ({spec.doc_bytes} bytes)"]
    return []


class ConstructRun:
    def __init__(self, spec: Construct, work: Path):
        self.spec = spec
        self.cp = ConstructionParams(*spec.kmtq)
        self.path = work / f"{spec.name}.json"

    def op(self, rec: Recorder, op: str) -> str:
        return construct(self.cp, self.path, rec, op)

    def check(self, text: str) -> list[str]:
        return document_errors(self.spec, text)

    def run_checks(self, counts: dict[str, int]) -> list[list[str]]:
        """Traced counts against the closed forms, when there are counts."""
        expected = closed_form_counts(self.cp)
        expected["scheme.doc_bytes"] = self.spec.doc_bytes
        return [count_errors(counts, expected)] if counts else []


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def scheme_path(spec: Simulate, work: Path) -> Path:
    return work / f"{spec.name}-scheme.json"


def prepare(spec: Simulate, work: Path) -> None:
    """Build and write the document simulate reads, and check its digest."""
    cp = ConstructionParams(*spec.scheme.kmtq)
    text = construct(cp, scheme_path(spec, work), Recorder(False), "prepare")
    errors = document_errors(spec.scheme, text)
    if errors:
        raise RuntimeError(errors[0])


class SimulateRun:
    """Set-up reads and loads the document and fills the store; an op is
    one seeded demand round: encode, then decode and compare every user."""

    def __init__(self, spec: Simulate, work: Path, seed: int, rec: Recorder):
        self.spec = spec
        self.cp = ConstructionParams(*spec.scheme.kmtq)
        with rec.span("cli.read", "setup"):
            with open(scheme_path(spec, work), "r", encoding="ascii") as fh:
                text = fh.read()
        rec.count("scheme.doc_bytes", len(text))
        with rec.span("scheme.deserialize", "setup"):
            self.instance = deserialize(text)
        del text
        p = self.instance.params
        k, f, d = p.users, p.subpacketization, p.group_size
        rec.count("linegraph.users", k)
        rec.count("linegraph.subfiles", f)
        rec.count("linegraph.vertices", int(self.instance.placement.matrix.sum()))
        rec.count("linegraph.cliques", self.instance.delivery.num_cliques)
        with rec.span("scheme.store", "setup"):
            self.store = FileStore.random(k, f, SUBFILE_LEN, seed=seed)
        self.demands = demand_stream(seed, k, k)
        self.packets_expected = params_from(self.cp).transmissions
        # Computed, not measured, traffic.  Encode reads d subfiles and
        # writes one packet per clique.  Each user's decode reads D packets,
        # D(d-1) cached side subfiles and F-D cached subfiles, and writes F.
        big_d, c = p.missing_per_user, self.instance.delivery.num_cliques
        self.encode_bytes = c * (d + 1) * SUBFILE_LEN
        self.decode_bytes = k * SUBFILE_LEN * (big_d * d + 2 * f - big_d)

    def op(self, rec: Recorder, op: str):
        demands = next(self.demands)
        with rec.span("scheme.encode", op):
            packets = run_round(self.instance, self.store, demands)
        rec.count("scheme.packets", len(packets))
        rec.count("scheme.encode_bytes", self.encode_bytes)
        with rec.span("scheme.decode", op):
            results = decode_round(self.instance, self.store, demands, packets)
        rec.count("scheme.decode_bytes", self.decode_bytes)
        return packets, results

    def check(self, out) -> list[str]:
        packets, results = out
        errors = []
        if len(packets) != self.packets_expected:
            errors.append(f"{len(packets)} packets, R*F = {self.packets_expected}")
        bad = [u for u, ok in enumerate(results) if not ok]
        if bad or len(results) != self.instance.params.users:
            errors.append(f"users {bad[:8]} of {len(results)} decoded wrong bytes")
        return errors

    def run_checks(self, counts: dict[str, int]) -> list[list[str]]:
        """Round 0 of REF_SEED against its recorded trace digest, and the
        traced counts against the closed forms when there are counts."""
        p = self.instance.params
        self.store = None  # so the two stores are never held at once
        store = FileStore.random(p.users, p.subpacketization, SUBFILE_LEN, seed=REF_SEED)
        demands = next(demand_stream(REF_SEED, p.users, p.users))
        packets = run_round(self.instance, store, demands)
        digest = sha256(packet_trace_bytes(packets))
        errors = self.check((packets, decode_round(self.instance, store, demands, packets)))
        if digest != self.spec.trace_sha256:
            errors.append(f"round 0 of seed {REF_SEED}: trace sha256 {digest}, "
                          f"expected {self.spec.trace_sha256}")
        expected = closed_form_counts(self.cp)
        expected["scheme.doc_bytes"] = self.spec.scheme.doc_bytes
        return [errors] + ([count_errors(counts, expected)] if counts else [])


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

class HostProbe:
    """Times a fixed kernel that shares no state with the package.

    The machine's speed drifts by tens of percent over minutes, so run.py
    scales every reported time by the median probe time of the run.  The
    kernel mixes interpreter work with a numpy gather and XOR, like the
    workloads, and allocates nothing with the collector off, so the
    package's heap cannot change its time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 256, size=(4096, 64), dtype=np.uint8)
        self.index = rng.integers(0, 4096, size=16384)
        self.rows = np.empty((16384, 64), dtype=np.uint8)
        self.acc = np.zeros_like(self.rows)

    def __call__(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = now()
            x = 1
            for _ in range(80_000):
                x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            for _ in range(36):
                np.take(self.table, self.index, axis=0, out=self.rows)
                np.bitwise_xor(self.acc, self.rows, out=self.acc)
            return now() - start
        finally:
            if enabled:
                gc.enable()


def run_ops(ctx, recorders: list[Recorder], seconds: float) -> list[dict]:
    """Run ops back to back until `seconds` have passed, at least one op
    per recorder.

    Op i records into recorders[i % len(recorders)], so traced and
    untraced ops interleave and share any drift over the run.  An op's
    time covers the calls into the package; its correctness check runs
    after the clock stops, then the host probe.  An op that raises counts
    as failed.
    """
    probe = HostProbe()
    ops = []
    start = now()
    while True:
        op_id = f"op-{len(ops)}"
        rec = recorders[len(ops) % len(recorders)]
        t0 = now()
        try:
            with rec.span("op", op_id):
                out = ctx.op(rec, op_id)
            t1 = now()
            errors = ctx.check(out)
        except Exception as exc:  # the loop must go on and count the failure
            t1 = now()
            traceback.print_exc()
            errors = [f"{type(exc).__name__}: {exc}"]
        for msg in errors:
            print(f"{op_id} failed: {msg}", file=sys.stderr)
        ops.append({"id": op_id, "s": t1 - t0, "traced": rec.enabled, "errors": errors,
                    "host_s": probe()})
        if now() - start >= seconds and len(ops) >= len(recorders):
            return ops


def make_run(spec, work: Path, seed: int, rec: Recorder):
    if isinstance(spec, Construct):
        return ConstructRun(spec, work)
    return SimulateRun(spec, work, seed, rec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", required=True,
                        choices=("prepare", "setup", "run", "memory"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="directory for documents")
    args = parser.parse_args(argv)

    package = Path(pgcache.__file__).resolve().parent
    if package != ROOT / "src" / "pgcache":
        print(f"error: imported pgcache from {package}, not from this checkout",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    work = Path(args.work)
    result: dict = {"python": platform.python_version(), "numpy": np.__version__}

    if args.role == "prepare":
        if isinstance(spec, Simulate):
            prepare(spec, work)
        print(json.dumps(result))
        return 0

    if args.role == "memory":
        tracemalloc.start()
    rec = Recorder(enabled=args.trace == 1 or args.role == "memory")
    with rec.span("setup", "setup"):
        ctx = make_run(spec, work, args.seed, rec)
    result["ready"] = now()

    ops: list[dict] = []
    if args.role == "run":
        recorders = [Recorder(False), rec] if args.trace else [rec]
        ops = run_ops(ctx, recorders, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["checks"] = ctx.run_checks(rec.counts)
        for msg in (m for errors in result["checks"] for m in errors):
            print(f"check failed: {msg}", file=sys.stderr)
    elif args.role == "memory":
        ops = run_ops(ctx, [rec], 0)
    else:
        probe = HostProbe()
        result["host_s"] = [probe() for _ in range(3)]
    result.update(ops=ops, spans=rec.spans, counts=rec.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
