"""Tests of the benchmark itself: correctness gates and span arithmetic.

Run from the repository root:

  PYTHONPATH=src python -m pytest perfbench -q
"""

import argparse
import tracemalloc

import pytest

import pgcache
import run
import workloads
from pgcache import scheme as scheme_module
from pgcache.linegraph import ConstructionParams
from pgcache.scheme import build_scheme, serialize
from spans import Recorder, coverage, median_durations, self_times
from workloads import (
    Construct,
    ConstructRun,
    Simulate,
    SimulateRun,
    closed_form_counts,
    count_errors,
    prepare,
    run_ops,
)


def small_construct(kmtq=(3, 1, 1, 2)) -> Construct:
    text = serialize(build_scheme(ConstructionParams(*kmtq)))
    return Construct("small", kmtq, workloads.sha256(text.encode("ascii")), len(text))


@pytest.fixture
def simulate_run(tmp_path):
    spec = Simulate("small-simulate", small_construct(), trace_sha256="")
    prepare(spec, tmp_path)
    return SimulateRun(spec, tmp_path, seed=3, rec=Recorder(False))


def test_round_passes_untampered(simulate_run):
    ops = run_ops(simulate_run, [Recorder(False)], 0)
    assert [op["errors"] for op in ops] == [[]]


def test_flipped_packet_byte_fails_the_op(simulate_run, monkeypatch):
    real = workloads.run_round

    def flip_one_byte(instance, store, demands):
        packets = real(instance, store, demands)
        packets[0].payload[0] ^= 1
        return packets

    monkeypatch.setattr(workloads, "run_round", flip_one_byte)
    ops = run_ops(simulate_run, [Recorder(False)], 0)
    assert len(ops) == 1
    assert any("decoded wrong bytes" in e for e in ops[0]["errors"])


def test_altered_document_fails_digest_gate(tmp_path, monkeypatch):
    ctx = ConstructRun(small_construct(), tmp_path)
    assert run_ops(ctx, [Recorder(False)], 0)[0]["errors"] == []

    real = workloads.serialize

    def alter_one_byte(instance):
        text = real(instance)
        return text[:40] + chr(ord(text[40]) ^ 1) + text[41:]

    monkeypatch.setattr(workloads, "serialize", alter_one_byte)
    errors = run_ops(ctx, [Recorder(False)], 0)[0]["errors"]
    assert len(errors) == 1 and "document sha256" in errors[0]


def test_failed_op_makes_the_run_incorrect():
    args = argparse.Namespace(workload="small", seed=1, seconds=1.0, trace=0)
    slow = 2 * run.HOST_REF_S  # the host ran at half the reference speed
    report = {"ops": [{"id": "op-0", "s": 1.0, "traced": False, "errors": [], "host_s": slow},
                      {"id": "op-1", "s": 1.2, "traced": False, "errors": ["bad"],
                       "host_s": slow}],
              "checks": [[]], "peak_rss_mb": 10.0,
              "spans": [], "counts": {}, "python": "3", "numpy": "2"}
    setups = [{"spans": [], "host_s": [4 * run.HOST_REF_S] * 3}]  # a quarter speed
    line, record = run.summarize(args, report, setups, [0.5, 0.6, 0.7], None)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 1)
    assert record["errors"] == ["bad"]
    assert record["host_factor"] == pytest.approx({"ops": 2.0, "setup": 4.0})
    metrics = {k: m["value"] for k, m in line["metrics"].items()}
    assert metrics["ops_per_s"] == pytest.approx(2 * 1 / 2.2)
    assert metrics["op_s_p50"] == pytest.approx(1.1 / 2)
    assert metrics["setup_s"] == pytest.approx(0.6 / 4)
    assert metrics["peak_rss_mb"] == 10.0


@pytest.mark.parametrize("kmtq", [(3, 1, 1, 2), (3, 1, 1, 3), (4, 1, 2, 2)])
def test_traced_construct_matches_build_scheme(tmp_path, kmtq):
    ctx = ConstructRun(small_construct(kmtq), tmp_path)
    rec = Recorder()
    ops = run_ops(ctx, [rec], 0)
    assert ops[0]["errors"] == []
    assert ctx.run_checks(rec.counts) == [[]]
    names = {s["name"] for s in rec.spans}
    assert names == {"op", "linegraph.universe", "linegraph.line_graph",
                     "linegraph.verify", "scheme.placement", "linegraph.cliques",
                     "scheme.serialize", "cli.write"}
    assert all(s["parent"] == 0 for s in rec.spans[1:])
    for name in workloads.BUILD_STEPS:  # the package's own steps are back
        assert getattr(scheme_module, name) is getattr(pgcache, name)


def test_simulate_counts_match_closed_forms(tmp_path):
    spec = Simulate("small-simulate", small_construct(), trace_sha256="")
    prepare(spec, tmp_path)
    rec = Recorder()
    ctx = SimulateRun(spec, tmp_path, seed=0, rec=rec)
    run_ops(ctx, [rec], 0)
    assert count_errors(rec.counts, closed_form_counts(ctx.cp)) == []
    assert set(closed_form_counts(ctx.cp)) <= set(rec.counts)
    assert count_errors({"linegraph.users": 8}, closed_form_counts(ctx.cp))


def test_count_must_repeat_exactly():
    rec = Recorder()
    rec.count("x", 3)
    rec.count("x", 3)
    with pytest.raises(ValueError):
        rec.count("x", 4)


def test_disabled_recorder_records_nothing():
    rec = Recorder(False)
    with rec.span("a", "op-0"):
        rec.count("x", 1)
    assert rec.spans == [] and rec.counts == {}


def span(i, name, start, end, parent=None, op="op-0"):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}


def test_self_time_and_coverage_arithmetic():
    spans = [
        span(0, "op", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 6.0, parent=0),   # overlaps a: union is [1, 6]
        span(3, "c", 8.0, 12.0, parent=0),  # clipped to the parent's end
        span(4, "op", 20.0, 30.0, op="op-1"),
        span(5, "a", 22.0, 27.0, parent=4, op="op-1"),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(3.0)
    assert coverage(spans) == pytest.approx((7.0 + 5.0) / 20.0)
    assert median_durations(spans) == pytest.approx({"op": 10.0, "a": 4.0, "b": 3.0, "c": 4.0})


def test_peak_is_recorded_for_leaf_spans_only():
    rec = Recorder()
    tracemalloc.start()
    try:
        with rec.span("outer", "op-0"):
            with rec.span("inner", "op-0"):
                block = bytearray(2_000_000)
            del block
    finally:
        tracemalloc.stop()
    outer, inner = rec.spans
    assert "peak_bytes" not in outer
    assert inner["peak_bytes"] >= 2_000_000
