"""Scheme parameters, placement, XOR delivery, simulator, serialization."""

import base64
import hashlib
import json
import mmap
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pgcache import linegraph as linegraph_module, scheme as scheme_module
from pgcache.linegraph import (
    ConstructionParams,
    InvariantError,
    build_line_graph,
    build_universe,
    enumerate_transmission_cliques,
)
from pgcache.scheme import (
    CodedPacket,
    DecodeError,
    DeliveryPlan,
    FileStore,
    Packets,
    PlacementMap,
    SchemaError,
    build_placement,
    build_scheme,
    decode,
    decode_round,
    delivery_violation,
    demand_stream,
    deserialize,
    document_chunks,
    encode,
    packet_trace_bytes,
    params_from,
    parse_packet_trace,
    run_round,
    run_trials,
    serialize,
    splitmix64,
)

FANO = ConstructionParams(3, 1, 1, 2)


@pytest.fixture(scope="module")
def fano():
    return build_scheme(FANO)


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------

def test_fano_params():
    p = params_from(FANO)
    assert (p.users, p.subpacketization, p.missing_per_user,
            p.missing_per_subfile, p.group_size) == (7, 21, 12, 4, 3)
    assert p.cached_fraction == Fraction(3, 7)
    assert p.rate == Fraction(4, 3)
    assert p.gain == 3
    assert p.transmissions == 28


def test_reference_parameter_rows():
    p = params_from(ConstructionParams(6, 3, 2, 2))
    assert p.users == 31
    assert 1 - p.cached_fraction == Fraction(16, 31)
    assert p.gain == 5

    p = params_from(ConstructionParams(7, 3, 2, 2))
    assert p.users == 63
    assert 1 - p.cached_fraction == Fraction(48, 63)

    p = params_from(ConstructionParams(9, 4, 3, 2))
    assert (p.users, p.gain) == (127, 6)


def test_params_identities_hold_broadly():
    for cp in [ConstructionParams(4, 1, 1, 2), ConstructionParams(5, 2, 2, 2),
               ConstructionParams(4, 1, 1, 3), ConstructionParams(5, 1, 3, 2)]:
        p = params_from(cp)
        assert p.users * p.missing_per_user == p.subpacketization * p.missing_per_subfile
        assert p.cached_fraction == 1 - Fraction(p.missing_per_user, p.subpacketization)
        assert p.rate * (cp.m + 2) == p.users * (1 - p.cached_fraction)


def test_params_reject_empty_delivery():
    with pytest.raises(ValueError):
        params_from(ConstructionParams(4, 2, 2, 2))  # m + t = k


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------

def test_fano_placement_regularity(fano):
    pl = fano.placement
    assert (pl.matrix.sum(axis=1) == 12).all()
    assert (pl.matrix.sum(axis=0) == 4).all()
    # each subfile is cached at K - c = 3 users
    assert ((pl.matrix == 0).sum(axis=0) == 3).all()


def test_placement_total_ones():
    g = build_line_graph(build_universe(ConstructionParams(4, 1, 2, 2)))
    pl = build_placement(g)
    assert int(pl.matrix.sum()) == g.vertex_count


def test_one_read_only_table_backs_universe_graph_and_placement():
    g = build_line_graph(build_universe(ConstructionParams(4, 1, 2, 2)))
    tables = [g.outside_mask, build_placement(g).matrix]
    assert all(np.shares_memory(tables[0], t) for t in tables[1:])
    for t in tables:
        with pytest.raises(ValueError):
            t[0, 0] = not t[0, 0]


def test_placement_bitmask_roundtrip(fano):
    pl = fano.placement
    for u in range(pl.num_users):
        raw = np.frombuffer(base64.b64decode(pl.row_base64(u)), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")
        assert (bits[:pl.num_subfiles] == pl.matrix[u]).all()
        assert not bits[pl.num_subfiles:].any()


# (N, F, L) of 0, 1, 7, 9 and 323 bytes: not all whole 64-bit words.
@pytest.mark.parametrize("shape", [(1, 1, 0), (1, 1, 1), (1, 7, 1), (3, 1, 3), (17, 19, 1)])
@pytest.mark.parametrize("seed", [0, 11])
def test_random_store_is_numpy_uint8_draws(shape, seed):
    want = np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)
    got = FileStore.random(*shape, seed=seed).data
    assert got.dtype == np.uint8 and got.shape == shape
    assert (got == want).all()


def test_random_store_refuses_negative_lengths_and_seeds():
    with pytest.raises(ValueError, match="subfile_len must be >= 0, got -1"):
        FileStore.random(1, 1, subfile_len=-1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        FileStore.random(1, 1, seed=-5)


@pytest.mark.parametrize("shape,message", [
    ((-1, 1, 1), "num_files must be >= 0, got -1"),
    ((1, -3, 1), "num_subfiles must be >= 0, got -3"),
    ((-2, -2, 1), "num_files must be >= 0, got -2"),
    ((1, -1, -1), "num_subfiles must be >= 0, got -1"),
    ((1, 1, -4), "subfile_len must be >= 0, got -4"),
])
def test_random_store_names_the_negative_argument(shape, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FileStore.random(*shape)


# (N, F, L): F*L of 1344 bytes, whole 64-bit words, and of 105 and 9
# bytes, where a file starts part way into a word.
@pytest.mark.parametrize("shape", [(9, 21, 64), (9, 21, 5), (9, 3, 3)])
@pytest.mark.parametrize("seed", [0, 2 ** 32])
def test_files_drawn_alone_match_the_random_store(shape, seed):
    n = shape[0]
    whole = FileStore.random(*shape, seed=seed).data
    files = [0, 1, n // 2, n - 1]
    alone = FileStore(np.zeros((len(files),) + shape[1:], dtype=np.uint8))
    alone.draw(range(len(files)), files, seed=seed)
    assert alone.data.dtype == np.uint8 and alone.data.shape == (len(files),) + shape[1:]
    assert (alone.data == whole[files]).all()
    alone.draw(range(len(files))[::-1], files, seed=seed)
    assert (alone.data == whole[files[::-1]]).all()
    # Only the named slots are written.
    alone.data[:] = 0
    alone.draw([2], [n - 1], seed=seed)
    assert (alone.data[2] == whole[n - 1]).all() and not alone.data[[0, 1, 3]].any()


def test_drawn_store_refuses_a_negative_file():
    with pytest.raises(ValueError, match="^files must be >= 0, got -1$"):
        FileStore(np.zeros((2, 3, 3), dtype=np.uint8)).draw([0, 1], [0, -1])


# ----------------------------------------------------------------------
# Encode
# ----------------------------------------------------------------------

def test_single_clique_toy_xor():
    users = np.array([[0, 1]])
    subs = np.array([[1, 0]])
    plan = DeliveryPlan(users=users, subfiles=subs)
    store = FileStore.random(2, 2, subfile_len=8, seed=5)
    packets = encode(plan, store, [1, 0])
    want = store.data[1, 1] ^ store.data[0, 0]
    assert (packets[0].payload == want).all()


def test_zero_store_gives_zero_packets(fano):
    store = FileStore(data=np.zeros((7, 21, 4), dtype=np.uint8))
    packets = run_round(fano, store, [0] * 7)
    assert len(packets) == 28
    assert all(not p.payload.any() for p in packets)


def test_encode_validates_demands(fano):
    store = FileStore.random(7, 21, subfile_len=4, seed=0)
    with pytest.raises(ValueError):
        encode(fano.delivery, store, [0] * 6)      # too short
    with pytest.raises(ValueError):
        encode(fano.delivery, store, [7] * 7)      # file out of range
    with pytest.raises(ValueError):
        run_round(fano, store, [0] * 8)            # wrong vector length


# ----------------------------------------------------------------------
# Decode
# ----------------------------------------------------------------------

def test_fano_decodes_many_demand_vectors(fano):
    store = FileStore.random(7, 21, subfile_len=16, seed=11)
    stream = demand_stream(11, 7, 7)
    vectors = [next(stream) for _ in range(25)]
    vectors += [[0] * 7, list(range(7))]
    for demands in vectors:
        packets = run_round(fano, store, demands)
        assert len(packets) == 28
        assert all(decode_round(fano, store, demands, packets))


def test_decode_detects_corruption(fano):
    store = FileStore.random(7, 21, subfile_len=16, seed=3)
    demands = [3, 1, 4, 1, 5, 2, 6]
    packets = run_round(fano, store, demands)
    packets[5].payload[0] ^= 0xFF
    results = decode_round(fano, store, demands, packets)
    # exactly the members of clique 5 get a wrong subfile
    assert [u for u, ok in enumerate(results) if not ok] == sorted(fano.delivery.users[5])


def test_decode_takes_packets_by_clique_id(fano):
    """Packets may come in any order, and of two packets naming one clique
    the later one is decoded."""
    store = FileStore.random(7, 21, subfile_len=16, seed=9)
    demands = [6, 0, 2, 2, 5, 1, 3]
    packets = run_round(fano, store, demands)
    order = np.random.default_rng(9).permutation(len(packets))
    shuffled = Packets(packets.ids[order], packets.payloads[order])
    assert decode_round(fano, store, demands, shuffled) == [True] * 7
    ids = np.append(packets.ids, 5)
    for corrupt, failed in [(5, []), (len(ids) - 1, sorted(fano.delivery.users[5]))]:
        doubled = Packets(ids, np.vstack([packets.payloads, packets.payloads[5]]))
        doubled.payloads[corrupt, 3] ^= 0x81
        results = decode_round(fano, store, demands, doubled)
        assert [u for u, ok in enumerate(results) if not ok] == failed


@pytest.mark.parametrize("ids_dtype,payload_dtype,refused", [
    (np.int64, np.int64, "payloads are int64"),
    (np.int64, np.float64, "payloads are float64"),
    (np.float64, np.uint8, "ids are float64"),
], ids=["int64", "float64", "float_ids"])
def test_decode_refuses_payloads_that_are_not_bytes_and_ids_that_are_not_integers(
        fano, ids_dtype, payload_dtype, refused):
    store = FileStore.random(7, 21, subfile_len=8, seed=2)
    demands = [5, 5, 0, 1, 6, 2, 4]
    packets = run_round(fano, store, demands)
    ids = packets.ids.astype(ids_dtype)
    payloads = packets.payloads.astype(payload_dtype)
    if payload_dtype is np.uint8:
        ids[1] = 1.7      # read as clique 1 by a cast to int64
    else:
        payloads += 256   # the sent bytes in their low byte
    with pytest.raises(DecodeError, match=refused):
        decode_round(fano, store, demands, Packets(ids, payloads))


def test_decode_missing_packet_errors(fano):
    store = FileStore.random(7, 21, subfile_len=16, seed=3)
    demands = [0] * 7
    packets = run_round(fano, store, demands)
    short = Packets(packets.ids[:-1], packets.payloads[:-1])
    with pytest.raises(DecodeError, match=r"clique \[27\]"):
        decode(fano.delivery, store, demands, short)


def test_decode_with_nothing_missing_returns_cache():
    # degenerate scheme: everything cached, no cliques at all
    placement = PlacementMap(matrix=np.zeros((2, 3), dtype=np.uint8))
    plan = DeliveryPlan(
        users=np.zeros((0, 2), dtype=np.int64),
        subfiles=np.zeros((0, 2), dtype=np.int64),
    )
    assert delivery_violation(plan, placement) is None
    store = FileStore.random(2, 3, subfile_len=4, seed=1)
    packets = encode(plan, store, [1, 0])
    assert len(packets) == 0
    assert decode(plan, store, [1, 0], packets) == [True, True]


def test_decode_rejects_payloads_of_another_length(fano):
    store = FileStore.random(7, 21, subfile_len=8, seed=4)
    demands = [1, 2, 3, 4, 5, 6, 0]
    packets = run_round(fano, store, demands)
    short = Packets(packets.ids, packets.payloads[:, :4])
    with pytest.raises(DecodeError, match="subfiles are 8 bytes"):
        decode_round(fano, store, demands, short)


def test_decode_refuses_a_payload_short_of_the_ids(fano):
    store = FileStore.random(7, 21, subfile_len=8, seed=5)
    demands = [0, 1, 2, 3, 4, 5, 6]
    packets = run_round(fano, store, demands)
    short = Packets(packets.ids, packets.payloads[:-1])
    with pytest.raises(DecodeError, match="27 packet payloads for 28 clique ids"):
        decode(fano.delivery, store, demands, short)


def test_decode_refuses_ids_that_are_not_flat(fano):
    store = FileStore.random(7, 21, subfile_len=8, seed=6)
    demands = [6, 5, 4, 3, 2, 1, 0]
    packets = run_round(fano, store, demands)
    column = Packets(packets.ids[:, None], packets.payloads)
    with pytest.raises(DecodeError, match=r"shape \(28, 1\)"):
        decode(fano.delivery, store, demands, column)


def _xor_by_file_and_subfile(plan, store, demands):
    """The packets as XOR-ed before the blocked row gathers: one gather
    store.data[file, subfile] with two index arrays per member."""
    demands = np.asarray(demands)
    acc = np.zeros((plan.num_cliques, store.subfile_len), dtype=np.uint8)
    for j in range(plan.group_size):
        acc ^= store.data[demands[plan.users[:, j]], plan.subfiles[:, j]]
    return acc


@pytest.fixture(scope="module")
def small_schemes(fano):
    return {"3,1,1,2": fano, "4,1,1,3": build_scheme(ConstructionParams(4, 1, 1, 3))}


@pytest.mark.parametrize("block", [1, 7, "default", "above C"])
@pytest.mark.parametrize("length", [1, 5, 64])
@pytest.mark.parametrize("name", ["3,1,1,2", "4,1,1,3"])
def test_blocked_xor_matches_file_and_subfile_gathers(small_schemes, name, length, block,
                                                      monkeypatch):
    """Encode against the two-index reference, and decode of its packets
    in clique order, which decode takes as the batch's rows."""
    inst = small_schemes[name]
    plan = inst.delivery
    if block != "default":
        monkeypatch.setattr(linegraph_module, "BLOCK_ROWS",
                            plan.num_cliques + 1 if block == "above C" else block)
    k, f = inst.params.users, inst.params.subpacketization
    # More files than users, so that a row index mixing up files shows.
    store = FileStore.random(k + 3, f, length, seed=length)
    demands = next(demand_stream(length, k, k + 3))
    packets = encode(plan, store, demands)
    assert (packets.ids == np.arange(plan.num_cliques)).all()
    assert (packets.payloads == _xor_by_file_and_subfile(plan, store, demands)).all()
    assert decode(plan, store, demands, packets) == [True] * k
    # Clique 0 is in the first block; the last clique ends the last one,
    # a partial block whenever the block size does not divide C.
    for clique in (0, plan.num_cliques - 1):
        bad = Packets(packets.ids, packets.payloads.copy())
        bad.payloads[clique, length // 2] ^= 0x5A
        results = decode(plan, store, demands, bad)
        assert [u for u, ok in enumerate(results) if not ok] == sorted(plan.users[clique])


@pytest.mark.parametrize("order", ["reversed", "shuffled", "one id twice", "one id missing"])
@pytest.mark.parametrize("block", [1, 7, "default", "above C"])
@pytest.mark.parametrize("name", ["3,1,1,2", "4,1,1,3"])
def test_decode_takes_packets_out_of_order_by_clique_id(small_schemes, name, block, order,
                                                        monkeypatch):
    """Packets sent in another order than encode's are taken by clique id,
    the last packet naming a clique winning; the reference packets are
    the two-index XOR."""
    inst = small_schemes[name]
    plan = inst.delivery
    num, length = plan.num_cliques, 5
    if block != "default":
        monkeypatch.setattr(linegraph_module, "BLOCK_ROWS",
                            num + 1 if block == "above C" else block)
    k, f = inst.params.users, inst.params.subpacketization
    store = FileStore.random(k + 3, f, length, seed=num)
    demands = next(demand_stream(num, k, k + 3))
    reference = _xor_by_file_and_subfile(plan, store, demands)
    sent = {"reversed": np.arange(num)[::-1],
            "shuffled": np.random.default_rng(num).permutation(num),
            "one id twice": np.append(np.arange(num), num // 2),
            "one id missing": np.delete(np.arange(num), num // 2)}[order]
    ids, payloads = sent.astype(np.int64), reference[sent]
    if order == "one id missing":
        with pytest.raises(DecodeError, match=rf"no packet for clique \[{num // 2}\]"):
            decode(plan, store, demands, Packets(ids, payloads))
        return
    assert decode(plan, store, demands, Packets(ids, payloads)) == [True] * k
    if order == "one id twice":  # the earlier packet of the clique is not read
        spoiled = payloads.copy()
        spoiled[num // 2] ^= 0xFF
        assert decode(plan, store, demands, Packets(ids, spoiled)) == [True] * k
    for clique in (0, num // 2, num - 1):
        bad = payloads.copy()
        bad[np.flatnonzero(ids == clique)[-1], length // 2] ^= 0x5A
        results = decode(plan, store, demands, Packets(ids, bad))
        assert [u for u, ok in enumerate(results) if not ok] == sorted(plan.users[clique])


def _decode_by_clique(plan: DeliveryPlan, store: FileStore, demands,
                      packets: Packets) -> list[bool]:
    """decode walked one clique at a time on one thread: the clique's
    packet, the last one sent with its id, XOR its members' demanded
    subfiles; a nonzero residual fails every member."""
    demands = np.asarray(demands)
    packet_of = {int(clique): i for i, clique in enumerate(packets.ids)}
    exact = [True] * len(demands)
    for clique in range(plan.num_cliques):
        residual = packets.payloads[packet_of[clique]].copy()
        for user, subfile in zip(plan.users[clique], plan.subfiles[clique]):
            residual ^= store.data[demands[user], subfile]
        if residual.any():
            for user in plan.users[clique]:
                exact[user] = False
    return exact


def _cpus(monkeypatch, count: int) -> None:
    """Let the process run on `count` CPUs, as far as the block runner sees."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("block", [1, 7, "default"])
@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_block_runner_matches_the_sequential_reference(small_schemes, cpus, block,
                                                       monkeypatch):
    """Encode, in-order decode and out-of-order decode on any number of
    CPUs and blocks equal the one-thread references, damaged packets
    included; the runner starts one thread fewer than its workers."""
    _cpus(monkeypatch, cpus)
    if block != "default":
        monkeypatch.setattr(linegraph_module, "BLOCK_ROWS", block)
    started = []
    real_thread = threading.Thread

    def counted_thread(*args, **kwargs):
        started.append(1)
        return real_thread(*args, **kwargs)

    for name, inst in small_schemes.items():
        plan = inst.delivery
        num = plan.num_cliques
        k, f = inst.params.users, inst.params.subpacketization
        store = FileStore.random(k + 3, f, 5, seed=cpus)
        demands = next(demand_stream(cpus, k, k + 3))
        started.clear()
        with mock.patch.object(threading, "Thread", counted_thread):
            packets = encode(plan, store, demands)
        blocks = -(-num // linegraph_module.BLOCK_ROWS)
        assert len(started) == min(cpus, blocks, scheme_module._MAX_WORKERS) - 1
        assert np.array_equal(packets.payloads, _xor_by_file_and_subfile(plan, store, demands))
        damaged = packets.payloads.copy()
        damaged[[0, num // 3, num - 1], 2] ^= 0x5A
        order = np.random.default_rng(cpus).permutation(num)
        for sent in (Packets(packets.ids, damaged),
                     Packets(packets.ids[order].astype(np.int64), damaged[order])):
            want = _decode_by_clique(plan, store, demands, sent)
            assert want.count(False) > 0
            assert decode(plan, store, demands, sent) == want, name


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
@pytest.mark.parametrize("negative_at,outside_at", [(1, 2), (2, 1), (0, 3), (3, 0)])
def test_the_earliest_failing_block_is_raised(fano, cpus, negative_at, outside_at,
                                              monkeypatch):
    """A plan with a negative user in one block and a subfile past the
    store in another raises the earlier block's message, whichever
    worker reaches which block first."""
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(linegraph_module, "BLOCK_ROWS", 7)  # Fano's 28 cliques in 4 blocks
    users, subfiles = fano.delivery.users.copy(), fano.delivery.subfiles.copy()
    users[7 * negative_at + 3, 1] = -1
    subfiles[7 * outside_at + 5, 0] = 21
    plan = DeliveryPlan(users=users, subfiles=subfiles)
    store = FileStore.random(7, 21, subfile_len=4, seed=0)
    packets = Packets(np.arange(28), np.zeros((28, 4), dtype=np.uint8))
    message = ("delivery plan names a negative user" if negative_at < outside_at
               else "delivery plan names a subfile outside the store")
    with pytest.raises(ValueError, match=f"^{message}$"):
        encode(plan, store, [0] * 7)
    with pytest.raises(ValueError, match=f"^{message}$"):
        decode(plan, store, [0] * 7, packets)


def test_block_runner_loses_nothing_under_fast_thread_switching(fano, monkeypatch):
    """More workers than CPUs, a block per clique and a thread switch
    every microsecond: decode still fails exactly the members of the
    damaged cliques, which the workers mark in one shared array, and of
    many failing blocks the first one's error is raised."""
    _cpus(monkeypatch, 64)
    monkeypatch.setattr(scheme_module, "_MAX_WORKERS", 8)
    monkeypatch.setattr(linegraph_module, "BLOCK_ROWS", 1)
    store = FileStore.random(7, 21, subfile_len=4, seed=2)
    demands = [0, 1, 2, 3, 4, 5, 6]
    packets = encode(fano.delivery, store, demands)
    bad_plan = DeliveryPlan(users=fano.delivery.users.copy(),
                            subfiles=fano.delivery.subfiles.copy())
    bad_plan.subfiles[3:, 0] = 21  # every block from block 3 on
    rng = np.random.default_rng(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            damaged = Packets(packets.ids, packets.payloads.copy())
            damaged.payloads[rng.choice(28, size=2, replace=False), 1] ^= 0x33
            want = _decode_by_clique(fano.delivery, store, demands, damaged)
            assert decode(fano.delivery, store, demands, damaged) == want
            with pytest.raises(ValueError, match="subfile outside the store"):
                encode(bad_plan, store, demands)
        bad_plan.users[2, 1] = -1  # block 2, before the first bad subfile
        with pytest.raises(ValueError, match="negative user"):
            encode(bad_plan, store, demands)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpu_count", [None, 1, 2])
def test_block_runner_without_an_affinity_mask(small_schemes, cpu_count, monkeypatch):
    """Where os has no sched_getaffinity, the runner counts os.cpu_count()
    CPUs, one when that is unknown, and still matches the references."""
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(linegraph_module, "BLOCK_ROWS", 7)
    started = []
    real_thread = threading.Thread

    def counted_thread(*args, **kwargs):
        started.append(1)
        return real_thread(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", counted_thread)
    inst = small_schemes["4,1,1,3"]
    store = FileStore.random(40, 780, 8, seed=3)
    demands = next(demand_stream(3, 40, 40))
    packets = encode(inst.delivery, store, demands)
    assert len(started) == min(cpu_count or 1, scheme_module._MAX_WORKERS) - 1
    assert np.array_equal(packets.payloads,
                          _xor_by_file_and_subfile(inst.delivery, store, demands))
    damaged = Packets(packets.ids, packets.payloads.copy())
    damaged.payloads[::5, 0] ^= 1
    want = _decode_by_clique(inst.delivery, store, demands, damaged)
    assert want.count(False) > 0
    assert decode(inst.delivery, store, demands, damaged) == want


def test_one_cpu_starts_no_thread(small_schemes, monkeypatch):
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(linegraph_module, "BLOCK_ROWS", 7)

    def no_thread(*args, **kwargs):
        raise AssertionError("the block runner started a thread on one CPU")

    monkeypatch.setattr(threading, "Thread", no_thread)
    inst = small_schemes["4,1,1,3"]
    store = FileStore.random(40, 780, 8, seed=1)
    demands = next(demand_stream(1, 40, 40))
    packets = encode(inst.delivery, store, demands)
    assert np.array_equal(packets.payloads,
                          _xor_by_file_and_subfile(inst.delivery, store, demands))
    assert decode(inst.delivery, store, demands, packets) == [True] * 40


def test_zero_length_subfiles_decode(fano):
    store = FileStore.random(7, 21, subfile_len=0, seed=0)
    packets = run_round(fano, store, [0] * 7)
    assert packets.payloads.shape == (28, 0)
    assert decode_round(fano, store, [0] * 7, packets) == [True] * 7


def test_encode_refuses_subfiles_outside_the_store(fano):
    # The store is read as N*F rows, so subfile F would be a row of the next file.
    store = FileStore.random(7, 20, subfile_len=4, seed=0)
    packets = Packets(np.arange(28), np.zeros((28, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match="subfile outside the store"):
        encode(fano.delivery, store, [0] * 7)
    with pytest.raises(ValueError, match="subfile outside the store"):
        decode(fano.delivery, store, [0] * 7, packets)


def test_negative_users_are_refused():
    # numpy would wrap user -1 to the demand of the last user.
    plan = DeliveryPlan(users=np.array([[-1, 0]]), subfiles=np.array([[1, 0]]))
    store = FileStore.random(2, 2, subfile_len=8)
    packets = Packets(np.arange(1), np.zeros((1, 8), dtype=np.uint8))
    with pytest.raises(ValueError, match="negative user"):
        encode(plan, store, [1, 0])
    with pytest.raises(ValueError, match="negative user"):
        decode(plan, store, [1, 0], packets)


def test_encode_refuses_nested_demands(fano):
    store = FileStore.random(7, 21, subfile_len=4, seed=0)
    with pytest.raises(ValueError, match="^demands must be a flat sequence, one file per user$"):
        encode(fano.delivery, store, [[0] * 7])


def test_plan_guards_hold_under_optimize():
    """The plan's range checks raise under -O, so they are not asserts."""
    script = (
        "import numpy as np\n"
        "from pgcache.linegraph import ConstructionParams\n"
        "from pgcache.scheme import DeliveryPlan, FileStore, Packets, build_scheme, decode, encode\n"
        "fano = build_scheme(ConstructionParams(3, 1, 1, 2)).delivery\n"
        "negative = DeliveryPlan(users=np.array([[-1, 0]]), subfiles=np.array([[1, 0]]))\n"
        "cases = [(fano, FileStore.random(7, 20, 4), [0] * 7),\n"
        "         (negative, FileStore.random(2, 2, 4), [1, 0])]\n"
        "for plan, store, demands in cases:\n"
        "    packets = Packets(np.arange(plan.num_cliques), np.zeros((plan.num_cliques, 4), 'u1'))\n"
        "    for step in (lambda: encode(plan, store, demands),\n"
        "                 lambda: decode(plan, store, demands, packets)):\n"
        "        try:\n"
        "            step()\n"
        "        except ValueError as exc:\n"
        "            print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["delivery plan names a subfile outside the store"] * 2 \
        + ["delivery plan names a negative user"] * 2, proc.stdout


@pytest.mark.parametrize("k", [1, 7, 8, 31, 63, 64, 65, 121, 130])
def test_bit_words_match_row_by_row_packing(k):
    """_bit_words, packed flat block by block, against np.packbits of each
    row alone, on row counts around its block of BLOCK_ROWS rows."""
    block = linegraph_module.BLOCK_ROWS
    rng = np.random.default_rng(k)
    for rows in [0, 1, block - 1, block, block + 1]:
        mask = rng.random((rows, k)) < 0.5
        words = -(-k // 64)
        packed = np.zeros((rows, words * 8), dtype=np.uint8)
        for r in range(rows):
            row = np.packbits(mask[r], bitorder="little")
            packed[r, :len(row)] = row
        got = scheme_module._bit_words(mask)
        assert got.dtype == np.dtype("<u8") and got.shape == (words, rows)
        assert np.array_equal(got, packed.view("<u8").T)


def test_encode_and_decode_peak_near_one_packet_array():
    """Encode holds one (C, L) payload array plus block-sized buffers;
    decode holds no (C, L) array at all, only block-sized buffers and,
    for packets in clique order as encode sends them, no (C,) index
    array either.  The budget also covers the two (C,) int64 index
    arrays that packets in another order take."""
    inst = build_scheme(ConstructionParams(6, 3, 2, 2))
    k, f, length = inst.params.users, inst.params.subpacketization, 64
    store = FileStore.random(k, f, length, seed=0)
    demands = next(demand_stream(0, k, k))
    num = inst.delivery.num_cliques
    budget = num * length + 2 * 2 ** 20
    tracemalloc.start()
    try:
        packets = encode(inst.delivery, store, demands)
        encode_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert all(decode(inst.delivery, store, demands, packets))
        decode_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert encode_peak <= budget
    assert decode_peak <= 16 * num + 2 * 2 ** 20


@pytest.mark.parametrize("cpus", [1, 64])
def test_decode_peak_holds_when_every_packet_is_damaged(cpus, monkeypatch):
    """Every clique failing costs decode no more than none failing, up to
    a block's members per worker: the workers mark failing members as
    they go and keep nothing per block.  Keeping each block's failing
    members until the join would add the whole (C, d) user table, about
    1.4 MiB here."""
    _cpus(monkeypatch, cpus)
    inst = build_scheme(ConstructionParams(6, 3, 2, 2))
    k, f, length = inst.params.users, inst.params.subpacketization, 64
    store = FileStore.random(k, f, length, seed=0)
    demands = next(demand_stream(0, k, k))
    packets = encode(inst.delivery, store, demands)
    damaged = Packets(packets.ids, packets.payloads.copy())
    damaged.payloads[:, 0] ^= 1
    peaks = []
    for sent, want in ((packets, True), (damaged, False)):
        tracemalloc.start()
        try:
            assert decode(inst.delivery, store, demands, sent) == [want] * k
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    clean, every = peaks
    assert every <= clean + 256 * 2 ** 10


def test_encode_and_decode_peaks_hold_with_every_worker(monkeypatch):
    """The peak budgets above cover each worker's buffers: the block
    runner takes as many workers as it ever does on 64 CPUs."""
    _cpus(monkeypatch, 64)
    test_encode_and_decode_peak_near_one_packet_array()


def _reference_delivery_violation(plan: DeliveryPlan, placement: PlacementMap) -> str | None:
    """The whole-plan int64 check that the blocked one replaced, kept as
    the reference for its messages."""
    users, subs = plan.users, plan.subfiles
    mat = placement.matrix
    k, f = mat.shape
    # The mask in the order it is stored: flat[x * k + u] = mat[u, x], a
    # view when mat is the transpose of a line graph's vertex mask.
    flat = np.ravel(mat, order="F")

    def first_entry(where: np.ndarray) -> str:
        i, j = np.argwhere(where)[0]
        return f"delivery clique {i} entry {j} {[int(users[i, j]), int(subs[i, j])]}"

    outside = (users < 0) | (users >= k) | (subs < 0) | (subs >= f)
    if outside.any():
        return f"{first_entry(outside)} is outside {k} users x {f} subfiles"
    offsets = subs * k
    entries = offsets + users
    not_vertex = flat[entries] != 1
    if not_vertex.any():
        return f"{first_entry(not_vertex)} is cached, not a vertex"
    covered = np.zeros(f * k, dtype=bool)
    covered[entries] = True
    if np.count_nonzero(covered) != users.size:
        _, first = np.unique(entries, return_index=True)
        again = np.ones(users.shape, dtype=bool)
        again.reshape(-1)[first] = False
        return f"{first_entry(again)} repeats an earlier entry"
    del entries
    if users.size != np.count_nonzero(flat):
        u, x = np.argwhere((mat == 1) & ~covered.reshape(f, k).T)[0]
        return f"vertex ({u}, {x}) is in no delivery clique"
    for j in range(plan.group_size):
        # placement[u_j, x_j'] for the members j' of each clique: 1 at j' = j
        # (a vertex), 0 elsewhere (u_j caches the side information).
        side = np.take(flat, offsets + users[:, j:j + 1])
        if np.count_nonzero(side) != len(side):
            side[:, j] = 0
            i, other = np.argwhere(side)[0]
            return (f"delivery clique {i}: user {users[i, j]} does not cache subfile "
                    f"{subs[i, other]} of entry {other}, so it lacks the side "
                    f"information to decode entry {j}")
    return None


_PLAN_DAMAGE = ["swap subfiles", "swap a user's subfiles", "repeat a user", "drop a clique",
                "duplicate a clique", "reorder members", "set an entry", "widen an entry"]


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["3,1,1,2", "4,1,1,3"]), data=st.data(),
       wide=st.booleans(),
       block=st.sampled_from([5, 64, 1000, linegraph_module.BLOCK_ROWS]))
def test_delivery_violation_matches_the_whole_plan_reference(small_schemes, name, data,
                                                             wide, block):
    """On plans damaged one to three times, the blocked check returns what
    the whole-plan check returns, None included, string for string; for
    int32 plans and int64 ones, as a document's are parsed, and for
    blocks small enough that a plan spans many."""
    inst = small_schemes[name]
    k, f = inst.params.users, inst.params.subpacketization
    users = inst.delivery.users.astype(np.int64 if wide else np.int32)
    subs = inst.delivery.subfiles.astype(users.dtype)
    d = users.shape[1]
    for _ in range(data.draw(st.integers(1, 3), label="damages")):
        kind = data.draw(st.sampled_from(_PLAN_DAMAGE), label="kind")
        if not len(users):
            break
        i = data.draw(st.integers(0, len(users) - 1), label="clique")
        j = data.draw(st.integers(0, d - 1), label="member")
        if kind == "swap subfiles":
            i2 = data.draw(st.integers(0, len(users) - 1), label="other clique")
            j2 = data.draw(st.integers(0, d - 1), label="other member")
            subs[i, j], subs[i2, j2] = subs[i2, j2], subs[i, j]
        elif kind == "swap a user's subfiles":
            # Both entries stay vertices and the cover stays exact, so
            # only the side information can fail.
            others = np.argwhere(users == users[i, j])
            i2, j2 = others[data.draw(st.integers(0, len(others) - 1), label="other entry")]
            subs[i, j], subs[i2, j2] = subs[i2, j2], subs[i, j]
        elif kind == "repeat a user":
            users[i, j] = users[i, (j + 1) % d]
        elif kind == "drop a clique":
            users, subs = np.delete(users, i, axis=0), np.delete(subs, i, axis=0)
        elif kind == "duplicate a clique":
            at = data.draw(st.integers(0, len(users)), label="at")
            users, subs = (np.insert(users, at, users[i], axis=0),
                           np.insert(subs, at, subs[i], axis=0))
        elif kind == "reorder members":
            order = data.draw(st.permutations(range(d)), label="order")
            users[i], subs[i] = users[i][order], subs[i][order]
        else:
            target = data.draw(st.sampled_from([users, subs]), label="field")
            if kind == "set an entry":
                target[i, j] = data.draw(st.sampled_from([-1, -2 ** 31, k, f, f + 1])
                                         | st.integers(-3, f + 3), label="value")
            else:
                users, subs = users.astype(np.int64), subs.astype(np.int64)
                (users if target is users else subs)[i, j] = 2 ** 31 + 1
    plan = DeliveryPlan(users=users, subfiles=subs)
    with mock.patch.object(linegraph_module, "BLOCK_ROWS", block):
        found = delivery_violation(plan, inst.placement)
    assert found == _reference_delivery_violation(plan, inst.placement)


def test_a_clique_that_repeats_its_user_lacks_side_information():
    """Nobody caches anything, and each clique holds both vertices of one
    user: every entry is a vertex, covered once, and each member's subfile
    is missed only by that user within the clique, yet the user cannot
    decode two entries from one packet."""
    placement = PlacementMap(np.ones((2, 2), dtype=bool))
    plan = DeliveryPlan(users=np.array([[0, 0], [1, 1]], dtype=np.int32),
                        subfiles=np.array([[0, 1], [0, 1]], dtype=np.int32))
    found = delivery_violation(plan, placement)
    assert found == _reference_delivery_violation(plan, placement)
    assert found == ("delivery clique 0: user 0 does not cache subfile 1 of entry 1, so it "
                     "lacks the side information to decode entry 0")


def test_plan_is_int32_and_built_and_checked_in_blocks():
    """At (6,3,2,2) the clique build holds its two int32 (C, d) arrays and
    little more; the check holds the F*K covered mask and block-sized
    work, none of the plan-sized int64 temporaries of the whole-plan
    check."""
    graph = build_line_graph(build_universe(ConstructionParams(6, 3, 2, 2)))
    placement = build_placement(graph)
    tracemalloc.start()
    try:
        plan = enumerate_transmission_cliques(graph)
        clique_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert delivery_violation(plan, placement) is None
        check_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert plan.users.dtype == plan.subfiles.dtype == np.int32
    num, d = plan.users.shape
    assert clique_peak <= 8 * num * d + 4 * 2 ** 20
    assert check_peak <= placement.matrix.size + 2 * 2 ** 20


def test_rate_identity_across_instances():
    for cp in [FANO, ConstructionParams(4, 1, 2, 2), ConstructionParams(5, 2, 2, 2)]:
        inst = build_scheme(cp)
        assert Fraction(inst.delivery.num_cliques, inst.params.subpacketization) \
            == inst.params.rate
        # every uncached pair is covered exactly once
        plan = inst.delivery
        covered = np.zeros(inst.placement.matrix.shape, dtype=bool)
        covered[plan.users, plan.subfiles] = True
        assert (covered == (inst.placement.matrix == 1)).all()
        assert plan.users.size == np.count_nonzero(covered)


def test_decodability_at_sixty_three_users():
    # largest user count that stays under the default vertex cap
    cp = ConstructionParams(6, 1, 1, 2)
    inst = build_scheme(cp)
    assert inst.params.users == 63
    rep = run_trials(inst, trials=25, seed=63, num_files=63, subfile_len=4,
                     extra_demands=[[0] * 63, list(range(63))])
    assert rep.failures == 0
    assert rep.packet_count == inst.params.transmissions


def test_run_trials_holds_no_store_of_every_file(fano):
    """With more files than users, a round holds at most K of them; the
    whole store would be 10^4 * F * L bytes."""
    k, f, length = 7, 21, 64
    tracemalloc.start()
    try:
        rep = run_trials(fano, trials=3, seed=8, num_files=10_000, subfile_len=length,
                         extra_demands=[list(range(k))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.trials == 4 and rep.failures == 0
    assert peak < k * f * length + 2 ** 20


def test_run_trials_drops_a_round_s_files_before_the_next_is_drawn(fano):
    """A round holds the cache of K files, its packets and the block
    buffers, a peak of about 1.87 * K*F*L here; holding the last round's
    files while drawing the next peaks at about 2.77 * K*F*L."""
    k, f, length = 7, 21, 2 ** 14
    tracemalloc.start()
    try:
        run_trials(fano, trials=3, seed=8, num_files=10_000, subfile_len=length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * k * f * length


@pytest.mark.parametrize("num_files", [7, 12])
def test_run_trials_draws_only_what_its_cache_lacks(fano, monkeypatch, num_files):
    """With N <= K every file is drawn at most once; a round draws only
    files it demands, and none that the round before demanded; and every
    round's packets are those of the whole store drawn at once."""
    trials, seed, length = 50, 21, 8
    drawn, rounds = [], []
    draw, run_round_ = FileStore.draw, scheme_module.run_round

    def counted_draw(self, slots, files, seed=0):
        drawn.extend(files)
        draw(self, slots, files, seed)

    def kept_round(*args):
        packets = run_round_(*args)
        rounds.append((len(drawn), packets.payloads.copy()))
        return packets

    monkeypatch.setattr(FileStore, "draw", counted_draw)
    monkeypatch.setattr(scheme_module, "run_round", kept_round)
    rep = run_trials(fano, trials=trials, seed=seed, num_files=num_files, subfile_len=length)
    assert rep.failures == 0 and len(rounds) == trials
    stream = demand_stream(seed, 7, num_files)
    vectors = [next(stream) for _ in range(trials)]
    ends = [0] + [end for end, _ in rounds]
    per_round = [set(drawn[lo:hi]) for lo, hi in zip(ends, ends[1:])]
    if num_files <= 7:
        assert len(drawn) == len(set(drawn))
    for vector, files in zip(vectors, per_round):
        assert files <= set(vector)
    for before, files in zip(vectors, per_round[1:]):
        assert not files & set(before)
    whole = FileStore.random(num_files, fano.params.subpacketization, length, seed=seed)
    for vector, (_, payloads) in zip(vectors, rounds):
        assert np.array_equal(payloads, encode(fano.delivery, whole, vector).payloads)


def test_run_trials_peak_does_not_grow_with_the_trial_count(fano):
    """Each demand vector is drawn as its round starts, so no list of them
    grows with the trial count."""
    run_trials(fano, trials=1, seed=5, subfile_len=8)  # first-call allocations
    peaks = []
    for trials in (100, 3000):
        tracemalloc.start()
        try:
            run_trials(fano, trials=trials, seed=5, subfile_len=8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096


def test_run_trials_report(fano):
    rep = run_trials(fano, trials=10, seed=123, num_files=9, subfile_len=8,
                     extra_demands=[[0] * 7])
    assert rep.trials == 11
    assert rep.failures == 0
    assert rep.packet_count == 28
    assert Fraction(rep.packet_count, fano.params.subpacketization) == Fraction(4, 3)


def test_splitmix_stream_is_deterministic():
    a = [next(splitmix64(42)) for _ in range(3)]
    b = [next(splitmix64(42)) for _ in range(3)]
    assert a == b
    gen = splitmix64(42)
    seq = [next(gen) for _ in range(4)]
    assert len(set(seq)) == 4


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def test_serialize_roundtrip_byte_identical(fano):
    text = serialize(fano)
    again = deserialize(text)
    assert serialize(again) == text
    assert again.params == fano.params
    assert np.array_equal(again.universe.subfile_array, fano.universe.subfile_array)
    assert (again.placement.matrix == fano.placement.matrix).all()
    assert (again.delivery.users == fano.delivery.users).all()


def test_deserialized_scheme_still_decodes(fano):
    again = deserialize(serialize(fano))
    store = FileStore.random(7, 21, subfile_len=8, seed=9)
    demands = [6, 0, 2, 2, 4, 1, 3]
    packets = run_round(again, store, demands)
    assert all(decode_round(again, store, demands, packets))


def test_deserialize_rejects_garbage(fano):
    text = serialize(fano)
    with pytest.raises(SchemaError):
        deserialize(text[: len(text) // 2])        # truncated
    with pytest.raises(SchemaError):
        deserialize(text.replace("pgcache/1", "pgcache/2"))
    with pytest.raises(SchemaError):
        deserialize("{\"format\": \"pgcache/1\"}")  # missing keys
    with pytest.raises(SchemaError):
        deserialize("[1, 2, 3]")


def test_leading_nul_bytes_are_refused(fano):
    """A NUL among the first bytes must not make the JSON parser read the
    document as UTF-16 or UTF-32 and fail with UnicodeDecodeError."""
    text = serialize(fano)
    for at in range(4):
        with pytest.raises(SchemaError):
            deserialize(text[:at] + "\x00" + text[at + 1:])


def test_packet_trace_peaks_near_two_trace_sizes():
    """The trace is filled in one buffer and copied once into bytes: no
    third trace-sized copy is alive on the way."""
    count, length = 20000, 64
    rng = np.random.default_rng(7)
    packets = Packets(ids=rng.permutation(count).astype(np.int64),
                      payloads=rng.integers(0, 256, (count, length), dtype=np.uint8))
    size = 8 + count * (8 + length)
    tracemalloc.start()
    try:
        blob = packet_trace_bytes(packets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blob) == size
    assert peak <= 2 * size + 64 * 1024
    again = parse_packet_trace(blob)
    assert np.array_equal(again.ids, packets.ids)
    assert np.array_equal(again.payloads, packets.payloads)


def test_packet_trace_roundtrip(fano):
    store = FileStore.random(7, 21, subfile_len=8, seed=2)
    packets = run_round(fano, store, [0, 1, 2, 3, 4, 5, 6])
    blob = packet_trace_bytes(packets)
    again = parse_packet_trace(blob)
    assert len(again) == len(packets)
    assert all((a.payload == b.payload).all() and a.clique_id == b.clique_id
               for a, b in zip(packets, again))
    with pytest.raises(SchemaError):
        parse_packet_trace(blob[:-3])
    with pytest.raises(SchemaError):
        parse_packet_trace(b"nope" + blob[4:])
    unequal = (b"PGCT" + (2).to_bytes(4, "little")
               + (0).to_bytes(4, "little") + (4).to_bytes(4, "little") + bytes(4)
               + (1).to_bytes(4, "little") + (8).to_bytes(4, "little") + bytes(8))
    with pytest.raises(SchemaError, match="equal"):
        parse_packet_trace(unequal)
    equal_size = (b"PGCT" + (2).to_bytes(4, "little")
                  + (0).to_bytes(4, "little") + (6).to_bytes(4, "little") + bytes(6)
                  + (1).to_bytes(4, "little") + (2).to_bytes(4, "little") + bytes(6))
    with pytest.raises(SchemaError, match="packet 1 has 2 payload bytes"):
        parse_packet_trace(equal_size)
    # numpy cannot make a record type this long; the size check comes first.
    huge = blob[:12] + (2 ** 32 - 1).to_bytes(4, "little") + blob[16:]
    with pytest.raises(SchemaError, match="does not hold 28 packets"):
        parse_packet_trace(huge)


def _corrupt_trace(blob: bytes, length: int, data) -> bytes:
    """The trace after one to three random kinds of damage: byte edits in
    a clique id, a length field or a payload, a cut, appended bytes, or
    another packet count."""
    record = 8 + length
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["id", "len", "payload", "truncate", "append",
                                          "count"]))
        records = max(0, (len(blob) - 8) // record)
        if kind in ("id", "len", "payload") and records:
            lo, hi = {"id": (0, 4), "len": (4, 8), "payload": (8, record)}[kind]
            at = 8 + data.draw(st.integers(0, records - 1)) * record \
                + data.draw(st.integers(lo, hi - 1))
            edited = bytearray(blob)
            edited[at] ^= data.draw(st.integers(1, 255))
            blob = bytes(edited)
        elif kind == "truncate":
            blob = blob[:data.draw(st.integers(0, max(0, len(blob) - 1)))]
        elif kind == "append":
            blob += data.draw(st.binary(min_size=1, max_size=2 * record))
        elif kind == "count":
            count = data.draw(st.one_of(st.integers(0, 2 * records + 2),
                                        st.integers(0, 2 ** 32 - 1)))
            blob = blob[:4] + count.to_bytes(4, "little") + blob[8:]
    return blob


def _received(blob: bytes) -> dict[int, bytes]:
    """The payload that each clique id of a trace gets, read with the
    header's count and packet 0's length: the last packet naming it."""
    count = int.from_bytes(blob[4:8], "little")
    length = int.from_bytes(blob[12:16], "little")
    received = {}
    for r in range(count):
        at = 8 + r * (8 + length)
        received[int.from_bytes(blob[at:at + 4], "little")] = blob[at + 8:at + 8 + length]
    return received


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_traces_are_refused_or_fail_exactly_their_cliques(fano, data):
    k, f, length = 7, 21, 16
    store = FileStore.random(k, f, length, seed=0)
    demands = next(demand_stream(0, k, k))
    packets = run_round(fano, store, demands)
    sent = [row.tobytes() for row in packets.payloads]
    blob = _corrupt_trace(packet_trace_bytes(packets), length, data)
    try:
        results = decode_round(fano, store, demands, parse_packet_trace(blob))
    except (SchemaError, DecodeError):
        return
    received = _received(blob)
    changed = [i for i, payload in enumerate(sent) if received[i] != payload]
    wrong = set(fano.delivery.users[changed].ravel().tolist())
    assert results == [u not in wrong for u in range(k)]


# Round 0 of seed 0, recorded before packets became one batch.
TRACE_DIGESTS = [
    ((3, 1, 1, 2), 16, "5773f238e2680569b8151e249cd27c475344999677a70950e998a2696cebd27e"),
    ((4, 1, 1, 3), 8, "c049198a0fe139f3d30c0c7fa23da0316d79617283af298d9d6198411b0e1d07"),
]


@pytest.mark.parametrize("kmtq,subfile_len,digest", TRACE_DIGESTS,
                         ids=[",".join(map(str, row[0])) for row in TRACE_DIGESTS])
def test_round_zero_trace_is_byte_identical(kmtq, subfile_len, digest):
    inst = build_scheme(ConstructionParams(*kmtq))
    k, f = inst.params.users, inst.params.subpacketization
    store = FileStore.random(k, f, subfile_len, seed=0)
    demands = next(demand_stream(0, k, k))
    blob = packet_trace_bytes(run_round(inst, store, demands))
    assert hashlib.sha256(blob).hexdigest() == digest


def test_coded_packet_header(fano):
    store = FileStore(data=np.zeros((7, 21, 4), dtype=np.uint8))
    packets = run_round(fano, store, [0] * 7)
    assert [p.clique_id for p in packets] == list(range(28))
    assert isinstance(packets[0], CodedPacket)


# Document digests and lengths recorded from the subspace-enumeration
# construction this package started from; any change to user order,
# subfile order, placement or delivery order shows here.
DOCUMENT_LADDER = [
    ((3, 0, 1, 2), "303b432b0ee24e4a4bbef70172a17c9efc4ea69fab73c6df697946107c0ec32d", 741),
    ((3, 0, 2, 2), "8a840ac345fafadbf2d5bc94aaf86a34a0d1b684034f39ee98d34dc904f37068", 436),
    ((3, 1, 1, 2), "84f84f1d579fceea0c722f02595f2462d4be9408a0fe7537bda817a8776aca51", 1151),
    ((4, 1, 2, 2), "2915569c62c423239da83effeaed296b6a34c12af8145931ad81992254ef5c76", 1244),
    ((5, 1, 3, 2), "4ecf8cf4567ad983b4ef399c82571d47e0cf969fa87375676a8c1b0152fccbf2", 1370),
    ((4, 2, 1, 2), "721888b3236b443db209bd5717b0af5cf461d62e60970378f8362d002faa3502", 34191),
    ((5, 2, 2, 2), "72294bbeed7fbda869dea54d4c10ba4d6d858e6837d47dc713b2b38aa82c7e5b", 34412),
    ((6, 2, 3, 2), "3b7eec5aaf0a02e533d40a21cb22551a348c2d3269311321d938a0a4e2d68058", 34698),
    ((5, 3, 1, 2), "fb2e6a5e41b41b347898f54dcdf6be812fc568e2cb661fa04926a2c3406db097", 4903876),
    ((2, 0, 1, 3), "396b0da73c952b0a7fc94c399a17e0b43326db213ba3b66ec3de493ed87d9158", 460),
    ((3, 1, 1, 3), "f5d11b367b2ab2f25c658cc0776e775a2269d601f07eb9249f21055bdf14142b", 6639),
    ((4, 1, 1, 3), "ab55779cb2aaae35a810290c8bbca1f49e5b167105e39ddf79279ad144545f7a", 272498),
    ((4, 1, 2, 3), "886b18870a972c831eea318b955787b5436034e02c2ee44efdc63936106568a4", 6804),
    ((5, 1, 3, 3), "e1eb9ec3368d977bd73d7cdf3e80fd913c50864507dc75f01c9400ea685b8993", 7026),
    ((3, 0, 1, 4), "424015017ba4de7f425bb00f31b84b462efd89504e0ab980ca03aeb95f2f0c9c", 4140),
    ((3, 1, 1, 4), "b78e2baf8068309e191477f9f3e71d12375a5a344b200a2a0eab7aa803e7d72e", 31939),
    ((4, 1, 2, 4), "b582919dbfb8baeaa009db95361f8187b5295753fdc7ad355a9e826e48567c45", 32200),
    ((2, 0, 1, 5), "9e5a89d9d349ae3a7a4e27124e868b4001e246b2bbc5c21e62439004176b6afe", 624),
    ((3, 1, 1, 5), "0521bc9ae0696c1aeefd80b2635af1e02df4dd6f751c92d3b4dec3f71e0956e7", 112486),
    ((4, 1, 2, 5), "6804126fb5625b5ca56e25614d25a827ce1144fed59bc096c7794183c4f34ccb", 112867),
]


@pytest.mark.parametrize("kmtq,digest,length", DOCUMENT_LADDER,
                         ids=[",".join(map(str, row[0])) for row in DOCUMENT_LADDER])
def test_documents_are_byte_identical(kmtq, digest, length):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m = 0 rows
        text = serialize(build_scheme(ConstructionParams(*kmtq)))
    assert (hashlib.sha256(text.encode("ascii")).hexdigest(), len(text)) == (digest, length)
    assert "\0" not in text  # the renderer's padding bytes are all dropped
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert serialize(deserialize(text)) == text
        assert serialize(deserialize(text.encode("ascii"))) == text


def _subfiles_by_binary_search(graph, users):
    """Each clique member's subfile, by binary search on the subfiles'
    radix-K keys: the lookup the colex-rank table replaced."""
    subfiles = graph.subfile_array
    weights = graph.num_users ** np.arange(subfiles.shape[1] - 1, -1, -1, dtype=np.int64)
    keys = subfiles @ weights
    found = []
    for j in range(users.shape[1]):
        rest = np.delete(users, j, axis=1) @ weights
        at = np.minimum(np.searchsorted(keys, rest), len(keys) - 1)
        assert (keys[at] == rest).all()
        found.append(at)
    return np.column_stack(found)


@pytest.mark.parametrize("kmtq", [row[0] for row in DOCUMENT_LADDER
                                  if row[0][1] == 0 or row[0][2] > 1],
                         ids=lambda kmtq: ",".join(map(str, kmtq)))
def test_clique_lookup_matches_binary_search(kmtq):
    """m = 0 (pairs, one rank term) and t > 1 instances of the ladder."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m = 0 rows
        graph = build_line_graph(build_universe(ConstructionParams(*kmtq)))
    plan = enumerate_transmission_cliques(graph)
    assert plan.subfiles.dtype == np.int32
    assert (plan.subfiles == _subfiles_by_binary_search(graph, plan.users)).all()


def test_near_cap_document_is_byte_identical():
    """(4,2,1,4) has about 6.1M vertices, near the default cap; its
    delivery plan spans hundreds of render blocks.  Recorded from the
    nested-list writer."""
    text = serialize(build_scheme(ConstructionParams(4, 2, 1, 4)))
    assert (hashlib.sha256(text.encode("ascii")).hexdigest(), len(text)) == (
        "7881a389613809cbf1ea29348a7be6ada5920b7495ac6835844f0c9f4b20f2e9", 71003330)


# Zero and both sides of every digit-width boundary up to 10^12.
_WIDTH_EDGES = [0] + [v for w in range(1, 13) for v in (10 ** w - 1, 10 ** w)]


# Entries whose digits hold zeros: inside, at the end, or both.
_ZERO_DIGITS = [10, 100, 1005, 2 ** 32 - 1, 2 ** 32] + [
    v for w in range(1, 13) for v in (10 ** w, 10 ** w + 1)]


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("value", _ZERO_DIGITS)
def test_json_ints_keeps_inner_and_trailing_zeros(value, block):
    """Each value as the widest entry and padded by wider ones."""
    cases = [np.array([value]), np.array([[value, 0], [1, value], [value, 10]]),
             np.array([[[value, 7]], [[0, 10 ** 12 + 10]]])]
    with mock.patch.object(linegraph_module, "BLOCK_ROWS", block):
        for a in cases:
            assert scheme_module._json_ints(a) == json.dumps(a.tolist(),
                                                             separators=(",", ":"))


_INT_ARRAYS = hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                     max_side=16),
                         elements=st.one_of(st.sampled_from(_WIDTH_EDGES),
                                            st.integers(0, 10 ** 12)))


@settings(max_examples=200, deadline=None)
@given(a=_INT_ARRAYS, block=st.sampled_from([1, 7, linegraph_module.BLOCK_ROWS]),
       data=st.data())
@example(a=np.array(_WIDTH_EDGES), block=7, data=None)
@example(a=np.zeros((15, 1), dtype=np.int64), block=7, data=None)      # m = 0 subfiles
@example(a=np.arange(60).reshape(15, 2, 2), block=7, data=None)        # m = 0 delivery
@example(a=np.arange(60).reshape(15, 2, 2), block=1, data=None)
@example(a=np.zeros((0, 3, 2), dtype=np.int64), block=7, data=None)
@example(a=np.zeros((4, 0, 2), dtype=np.int64), block=1, data=None)
def test_json_ints_matches_json_dumps(a, block, data):
    """_json_ints writes what json.dumps writes, and _parse_ints reads
    that text back as the same array."""
    with mock.patch.object(linegraph_module, "BLOCK_ROWS", block):
        text = scheme_module._json_ints(a)
        assert text == json.dumps(a.tolist(), separators=(",", ":"))
        parsed = scheme_module._parse_ints(text.encode(), a.shape[1:])
        assert parsed is not None and parsed.dtype == np.int64
        assert parsed.shape == a.shape and (parsed == a).all()
        if a.size and data is not None:
            bad = a.copy()
            bad.flat[data.draw(st.integers(0, a.size - 1))] = -data.draw(
                st.integers(1, 10 ** 12))
            with pytest.raises(InvariantError, match="non-negative"):
                scheme_module._json_ints(bad)


@pytest.mark.parametrize("top", [0, 9, 10, 99, 1005, 283139, 10 ** 7 - 1])
def test_digit_words_hold_each_value_right_aligned(top):
    words = scheme_module._digit_words(top)
    assert words.dtype == np.dtype("<u8") and len(words) == top + 1
    step = max(1, top // 5000)
    for v in list(range(0, top + 1, step)) + [top]:
        digits = str(v).encode()
        assert words[v].tobytes() == b"\0" * (8 - len(digits)) + digits


# (users, subfiles, rows, whether the digit table serves).  The table
# serves when the plan holds more entries (8 a row here) than its largest
# value and every slot fits in 8 bytes.  The first entry of a delivery row
# follows "]],[[" and each subfile a ",", so the slots fit up to 3-digit
# users and 7-digit subfiles: (5,2,1,3) has K = 121 and F = 283140.
_PLAN_WIDTHS = [(31, 26040, 3256, True), (121, 283140, 35393, True),
                (31, 26040, 3254, False), (1001, 26040, 3256, False),
                (121, 10 ** 7 + 1, 100, False)]


@pytest.mark.parametrize("users,subfiles,rows,table", _PLAN_WIDTHS)
def test_plan_columns_render_as_their_stack(users, subfiles, rows, table):
    """Delivery renders from its two columns; the digit table serves
    wherever it can, the digit loop the rest."""
    rng = np.random.default_rng(users)
    u = rng.integers(0, users, size=(rows, 4))
    x = rng.integers(0, subfiles, size=(rows, 4))
    u[-1, -1], x[0, 0] = users - 1, subfiles - 1
    unused = "_digit_rows" if table else "_table_rows"
    with mock.patch.object(scheme_module, unused, side_effect=AssertionError):
        text = b"".join(scheme_module._json_int_blocks(u, x)).decode()
    assert text == json.dumps(np.stack((u, x), axis=-1).tolist(), separators=(",", ":"))


@settings(max_examples=100, deadline=None)
@given(shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
       tops=st.lists(st.sampled_from([0, 9, 999, 10 ** 6 - 1, 10 ** 12]), min_size=2,
                     max_size=3),
       block=st.sampled_from([1, 7, linegraph_module.BLOCK_ROWS]), data=st.data())
def test_json_int_columns_match_json_dumps_of_their_stack(shape, tops, block, data):
    columns = [data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, top)))
               for top in tops]
    with mock.patch.object(linegraph_module, "BLOCK_ROWS", block):
        text = b"".join(scheme_module._json_int_blocks(*columns)).decode()
    assert text == json.dumps(np.stack(columns, axis=-1).tolist(), separators=(",", ":"))


@pytest.mark.parametrize("a", [np.array([1.0, 2.0]), np.array([True]), np.array(5)],
                         ids=["float", "bool", "rank-0"])
def test_json_ints_refuses_what_it_cannot_render(a):
    with pytest.raises(InvariantError, match="integer arrays of rank >= 1"):
        scheme_module._json_ints(a)


@settings(max_examples=100, deadline=None)
@given(a=_INT_ARRAYS, negate=st.data(),
       layout=st.sampled_from([{}, {"indent": 1}, {"indent": "\t"},
                               {"separators": (" ,", " :\n ")}]))
def test_parse_ints_reads_json_dumps(a, negate, layout):
    """Signed entries and any JSON whitespace between tokens read back."""
    if a.size:
        a.flat[negate.draw(st.integers(0, a.size - 1))] *= -1
    parsed = scheme_module._parse_ints(json.dumps(a.tolist(), **layout).encode(),
                                       a.shape[1:])
    assert parsed is not None and parsed.shape == a.shape and (parsed == a).all()


@pytest.mark.parametrize("text", [
    b"[1,2,3.0]", b"[1,2,3e0]", b"[1,2,true]", b'[1,2,"3"]', b"[1,2,03]", b"[1,2 3]",
    b"[1,2,+3]", b"[1,2,-0]", b"[-1,2,-0]", b"[1,2,- 3]", b"[1,2,--3]", b"[1,2,3,]", b"[1,,2,3]",
    b"[1,2,3", b"1,2,3]", b"[1,2,3]]", b"[[1,2,3]]", b"[1,2,3\x0b]", b"[1,2,NaN]",
    b"[1,2,99999999999999999999]", b"[1,2,-99999999999999999999]", b"", b"[ ]x",
], ids=repr)
def test_parse_ints_refuses_other_text(text):
    assert scheme_module._parse_ints(text, ()) is None


@pytest.mark.parametrize("text,inner", [
    (b"[[1,2],[3]]", (2,)), (b"[[1,2],[3,4,5]]", (2,)), (b"[[1,2,3],[4]]", (2,)),
    (b"[[[1,2],[3,4]],[[5,6]]]", (2, 2)), (b"[[1,2],[3,4]]", (2, 2)),
    (b"[1,2,3,4]", (2,)), (b"[[],[]]", (1,)),
])
def test_parse_ints_refuses_ragged_rows(text, inner):
    assert scheme_module._parse_ints(text, inner) is None


def test_parsed_delivery_is_rendered_by_columns():
    """The general load path renders the parsed (C, d, 2) delivery back one
    column per position, each with its own width, so that at (6,3,2,2),
    where a user and a subfile in one width would not fit an 8-byte slot,
    it still takes the digit table and never the per-digit loop."""
    text = serialize(build_scheme(ConstructionParams(6, 3, 2, 2))).encode()
    _, arrays, _ = scheme_module._cut_arrays(text)
    with mock.patch.object(scheme_module, "_digit_rows", side_effect=AssertionError):
        pairs = scheme_module._parse_ints(arrays["delivery"], (5, 2))
    assert pairs is not None and pairs.shape == (83328, 5, 2)


def _corrupt(text: str, data) -> str:
    """The document text after one random kind of damage."""
    kind = data.draw(st.sampled_from(["edit", "truncate", "entry", "clique"]))
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if kind == "edit":
        chars = list(text)
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(chars) - 1))
            char = data.draw(st.one_of(st.sampled_from('0123456789[]{},:"-.e'),
                                       st.characters(codec="ascii")))
            how = data.draw(st.sampled_from(["replace", "insert", "delete"]))
            if how == "replace":
                chars[at] = char
            elif how == "insert":
                chars.insert(at, char)
            else:
                del chars[at]
        return "".join(chars)
    doc = json.loads(text)
    rows = doc["delivery"]
    i = data.draw(st.integers(0, len(rows) - 1))
    duplicate = data.draw(st.booleans())
    if kind == "clique":
        target, at = rows, i
    else:
        target, at = rows[i], data.draw(st.integers(0, len(rows[i]) - 1))
    if duplicate:
        target.insert(data.draw(st.integers(0, len(target))), json.loads(json.dumps(target[at])))
    else:
        del target[at]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_documents_are_refused_or_valid(fano, data):
    corrupted = _corrupt(serialize(fano), data)
    try:
        loaded = deserialize(corrupted)
    except SchemaError:
        return
    assert delivery_violation(loaded.delivery, loaded.placement) is None


def _bad_delivery(fano, case):
    doc = json.loads(serialize(fano))
    rows = doc["delivery"]
    if case == "negative":
        rows[0][0][0] = -1
    elif case == "out-of-range":
        rows[0][0][1] = 21
    elif case == "not-a-vertex":
        u, x = np.argwhere(fano.placement.matrix == 0)[0]
        rows[0][0] = [int(u), int(x)]
    elif case == "repeated":
        rows[1][0] = list(rows[0][0])
    elif case == "dropped":
        del rows[-1]
    elif case == "side-information":
        # Swap user u's subfiles between clique 0 and a later clique i.
        # Every entry stays a vertex and the cover stays exact, but some
        # other member of clique 0 does not cache u's subfile from clique i.
        u, x = rows[0][0]
        for row in rows[1:]:
            entry = next((e for e in row if e[0] == u), None)
            if entry and any(fano.placement.matrix[v, entry[1]] for v, _ in rows[0][1:]):
                rows[0][0][1], entry[1] = entry[1], x
                break
        assert rows[0][0][1] != x
    return json.dumps(doc)


@pytest.mark.parametrize("case,why", [
    ("negative", "outside"),
    ("out-of-range", "outside"),
    ("not-a-vertex", "not a vertex"),
    ("repeated", "repeats an earlier"),
    ("dropped", "in no delivery clique"),
    ("side-information", "lacks the side information"),
])
def test_deserialize_rejects_bad_delivery_entries(fano, case, why):
    with pytest.raises(SchemaError, match=why):
        deserialize(_bad_delivery(fano, case))


def test_deserialize_refuses_a_delivery_entry_past_int32(fano):
    """A stored entry is range-checked before the plan is narrowed to
    int32, so 2^31 + 1 is refused as it is, not wrapped."""
    doc = json.loads(serialize(fano))
    doc["delivery"][0][0][1] = 2 ** 31 + 1
    with pytest.raises(SchemaError, match=r"entry 0 \[\d+, 2147483649\] is outside"):
        deserialize(json.dumps(doc))


def test_a_damaged_canonical_document_is_refused_with_one_rebuild():
    """The general path takes the universe and placement of the scheme that
    the canonical comparison built, and refuses with the message it gives
    when it rebuilds them itself."""
    text = serialize(build_scheme(ConstructionParams(6, 3, 2, 2)))
    at = text.index(']]],"field"') - 1
    damaged = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
    with pytest.raises(SchemaError) as alone:
        scheme_module._parse_document(damaged.encode())
    with mock.patch.object(scheme_module, "build_universe",
                           wraps=scheme_module.build_universe) as rebuild:
        with pytest.raises(SchemaError) as loaded:
            deserialize(damaged)
    assert rebuild.call_count == 1
    assert str(loaded.value) == str(alone.value)


# Each token is not a JSON integer, yet a parser that casts or strips
# whitespace reads it as the integer beside it; the document is written
# with the token in place of an entry of that value where there is one.
_NOT_JSON_INTEGERS = [("7.0", 7), ("1e1", 10), ("true", 1), ('"12"', 12), ("07", 7),
                      ("1 2", 12)]


def _entry_written_as(fano, key, token, value):
    doc = json.loads(serialize(fano))
    entries = np.asarray(doc[key])
    hits = np.argwhere(entries == value)
    at = hits[0] if len(hits) else (0,) * entries.ndim
    row = doc[key]
    for i in at[:-1]:
        row = row[i]
    row[at[-1]] = "@"
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).replace('"@"', token)


@pytest.mark.parametrize("key", ["delivery", "subfiles"])
@pytest.mark.parametrize("token,value", _NOT_JSON_INTEGERS,
                         ids=[token for token, _ in _NOT_JSON_INTEGERS])
def test_deserialize_rejects_entries_that_are_not_json_integers(fano, key, token, value):
    with pytest.raises(SchemaError, match=f"stored {key} is not an array"):
        deserialize(_entry_written_as(fano, key, token, value))


@pytest.mark.parametrize("key", ["delivery", "subfiles"])
def test_deserialize_rejects_ragged_rows(fano, key):
    doc = json.loads(serialize(fano))
    doc[key][0].pop()
    with pytest.raises(SchemaError, match=f"stored {key} is not an array"):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("text,why", [
    ("{\"format\":\"pgcache/1\",\"root\":" + "[" * 100000 + "]" * 100000 + "}",
     "nested too deeply"),
    ("{\"format\":\"pgcache/1\u00e9\"}", "not ASCII"),
    (b"{\"format\":\"pgcache/1\xff\"}", "not ASCII"),
])
def test_deserialize_rejects_unparsable_text(text, why):
    with pytest.raises(SchemaError, match=why):
        deserialize(text)


@pytest.mark.parametrize("key", ["construction", "field", "users"])
def test_deserialize_reports_json_errors_where_they_stand(fano, key):
    """Before, between and after the two fields read with numpy."""
    bad = serialize(fano).replace(f'"{key}":', f'"{key}":x', 1)
    with pytest.raises(SchemaError, match=f"at char {bad.index(':x') + 1}$"):
        deserialize(bad)


def test_deserialize_rejects_json_constants(fano):
    text = serialize(fano)
    with pytest.raises(SchemaError, match="NaN and Infinity"):
        deserialize(text.replace('"format"', '"extra":NaN,"format"'))
    with pytest.raises(SchemaError, match="stored delivery is not an array"):
        deserialize(text.replace('"delivery"', '"\\"delivery":[],"delivery"'))


def test_deserialize_parses_only_the_header_as_json(fano):
    """A document with its keys out of order is not canonical, so it takes
    the general path, which parses only the header with json.loads."""
    doc = json.loads(serialize(fano))
    text = json.dumps(dict(reversed(doc.items())), separators=(",", ":"))
    with mock.patch.object(scheme_module.json, "loads", wraps=json.loads) as loads:
        deserialize(text)
    assert loads.call_count == 1
    (header,), _ = loads.call_args
    assert b'"delivery":NaN' in header and b'"subfiles":NaN' in header


def _mapped(path):
    with open(path, "rb") as fh:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def test_canonical_documents_load_without_parsing(fano, tmp_path):
    """A canonical document, as text, bytes or an mmap, is rebuilt from its
    construction and compared with the rebuilt scheme's chunks; nothing
    of it is parsed."""
    text = serialize(fano)
    path = tmp_path / "fano.json"
    path.write_text(text)
    with mock.patch.object(scheme_module.json, "loads", side_effect=AssertionError), \
            mock.patch.object(scheme_module, "_parse_ints", side_effect=AssertionError), \
            _mapped(path) as view:
        for document in (text, text.encode("ascii"), view):
            assert serialize(deserialize(document)) == text


@pytest.mark.parametrize("case", ["indented", "truncated", "not-a-vertex", "repeated"])
def test_mapped_documents_load_like_their_bytes(fano, tmp_path, case):
    """An mmap of any other text loads, or is refused, as its bytes are."""
    text = serialize(fano)
    if case == "indented":
        document = json.dumps(json.loads(text), indent=1)
    elif case == "truncated":
        document = text[:-1]
    else:
        document = _bad_delivery(fano, case)
    path = tmp_path / "doc.json"
    path.write_text(document)
    try:
        expected = serialize(deserialize(document.encode()))
    except SchemaError as exc:
        with _mapped(path) as view, pytest.raises(SchemaError, match=re.escape(str(exc))):
            deserialize(view)
    else:
        with _mapped(path) as view:
            assert serialize(deserialize(view)) == expected == text


def test_canonical_start_on_a_short_body_is_refused_before_any_rebuild(fano):
    """The canonical prefix of a construction far larger than the document:
    the general path refuses it by the stored row counts, as it refuses
    any rendering of that document."""
    doc = json.loads(serialize(fano))
    doc["construction"] = {"k": 40, "m": 1, "t": 1, "q": 2}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert text.startswith('{"construction":{"k":40,"m":1,"q":2,"t":1},')
    with mock.patch.object(scheme_module, "build_universe", side_effect=AssertionError):
        with pytest.raises(SchemaError, match="stored placement has 7 rows"):
            deserialize(text)


@pytest.mark.parametrize("kmtq", [row[0] for row in DOCUMENT_LADDER],
                         ids=[",".join(map(str, row[0])) for row in DOCUMENT_LADDER])
def test_serialize_joins_the_document_chunks(kmtq):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m = 0 rows
        instance = build_scheme(ConstructionParams(*kmtq))
    chunks = list(document_chunks(instance))
    assert all(isinstance(chunk, bytes) for chunk in chunks)
    assert serialize(instance) == b"".join(chunks).decode()


@pytest.fixture(scope="module")
def documents():
    return {kmtq: serialize(build_scheme(ConstructionParams(*kmtq)))
            for kmtq in [(3, 1, 1, 2), (4, 1, 1, 3)]}


@settings(max_examples=30, deadline=None)
@given(kmtq=st.sampled_from([(3, 1, 1, 2), (4, 1, 1, 3)]), data=st.data(),
       indent=st.sampled_from([None, 0, 1, "\t"]),
       separators=st.sampled_from([None, (",", ":"), (", ", ": "), (" ,\n", "\r:\t")]))
def test_rendered_documents_load_back_to_the_canonical_text(documents, kmtq, data,
                                                             indent, separators):
    text = documents[kmtq]
    doc = json.loads(text)
    doc = {key: doc[key] for key in data.draw(st.permutations(sorted(doc)))}
    again = json.dumps(doc, indent=indent, separators=separators)
    assert serialize(deserialize(again)) == text


def _altered(fano, key):
    doc = json.loads(serialize(fano))
    if key == "field":
        doc["field"]["modulus"] = [1, 1, 1, 1]
    elif key == "params":
        doc["params"]["rate"] = [5, 3]
    elif key == "root":
        doc["root"] = [[1, 0, 0]]
    elif key == "users":
        doc["users"].reverse()
    elif key == "subfiles":
        doc["subfiles"][0] = [0, 0]
    elif key == "placement":
        doc["placement"].reverse()
    return json.dumps(doc)


@pytest.mark.parametrize("key", ["field", "params", "root", "users", "subfiles",
                                 "placement"])
def test_deserialize_rejects_fields_unlike_the_construction(fano, key):
    with pytest.raises(SchemaError, match=f"stored {key} does not match"):
        deserialize(_altered(fano, key))


def test_deserialize_refuses_a_rebuild_larger_than_the_document(fano):
    doc = json.loads(serialize(fano))
    doc["construction"] = {"k": 40, "m": 1, "t": 1, "q": 2}
    with pytest.raises(SchemaError, match="stored placement has 7 rows"):
        deserialize(json.dumps(doc))


def test_deserialize_refuses_a_document_without_root(fano):
    doc = json.loads(serialize(fano))
    del doc["root"]
    with pytest.raises(SchemaError, match=r"^document lacks keys \['root'\]$"):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("key,rows", [("placement", 7), ("subfiles", 21)])
def test_deserialize_refuses_a_document_short_of_one_row(fano, key, rows):
    """One row short of the construction's count: enough rows to pass the
    bounds that _stored_construction checks first, so the row-count check
    refuses the document."""
    doc = json.loads(serialize(fano))
    del doc[key][-1]
    message = (f"stored {key} has {rows - 1} rows, the construction "
               f"{{'k': 3, 'm': 1, 'q': 2, 't': 1}} has {rows}")
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        deserialize(json.dumps(doc, sort_keys=True))


@pytest.mark.parametrize("change,why", [
    ({"t": 1.5}, "integers"),
    ({"m": True}, "integers"),
    ({"q": "2"}, "integers"),
    ({"k": 10 ** 30}, "placement has 7 rows, too few"),      # 2^(10^30) users
    ({"q": 2 ** 61 - 1}, "placement has 7 rows, too few"),   # a prime, slow to factor
    ({"k": 10 ** 6 + 2, "t": 10 ** 6}, "root has 0 rows, too few"),
])
def test_deserialize_refuses_constructions_the_document_cannot_hold(fano, change, why):
    doc = json.loads(serialize(fano))
    doc["construction"].update(change)
    with pytest.raises(SchemaError, match=why):
        deserialize(json.dumps(doc))


def test_build_scheme_checks_the_delivery_plan(monkeypatch):
    real = scheme_module.enumerate_transmission_cliques

    def drop_last_clique(graph):
        plan = real(graph)
        return DeliveryPlan(users=plan.users[:-1], subfiles=plan.subfiles[:-1])

    monkeypatch.setattr(scheme_module, "enumerate_transmission_cliques", drop_last_clique)
    with pytest.raises(InvariantError, match=r"build_scheme: vertex \(\d+, \d+\) is in no"):
        build_scheme(FANO)


def test_a_plan_the_two_checks_disagree_on_is_refused(fano, monkeypatch):
    """When the one-pass check refuses a plan that every message check
    passes, the plan is not taken as one that delivers."""
    monkeypatch.setattr(scheme_module, "_plan_fits", lambda plan, mat: False)
    with pytest.raises(InvariantError, match=r"^delivery_violation: _plan_fits refused the "
                                             r"plan, but _first_violation found no failing "
                                             r"check$"):
        delivery_violation(fano.delivery, fano.placement)


def test_a_canonical_start_with_m_plus_t_equal_to_k_is_refused(fano):
    """A document long enough to rebuild whose canonical start names a
    construction the constructor refuses is not rebuilt from that start;
    the general path refuses it with the constructor's message."""
    text = serialize(fano)
    start = '{"construction":{"k":3,"m":1,"q":2,"t":1},'
    assert text.startswith(start)
    text = '{"construction":{"k":3,"m":2,"q":2,"t":1},' + text[len(start):]
    assert scheme_module._canonical_build(text.encode()) is None
    message = ("malformed scheme document: m=2, t=1, k=3 caches every subfile at every "
               "user, an empty delivery problem: need m + t < k")
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        deserialize(text)


def test_deserialize_refuses_a_construction_without_k(fano):
    doc = json.loads(serialize(fano))
    del doc["construction"]["k"]
    with pytest.raises(SchemaError, match=r"^malformed scheme document: 'k'$"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_zero_denominators(fano):
    for key in ("cached_fraction", "rate"):
        doc = json.loads(serialize(fano))
        doc["params"][key] = [1, 0]
        with pytest.raises(SchemaError):
            deserialize(json.dumps(doc))


@pytest.mark.parametrize("bad_id", [-1, 28, 1000])
def test_decode_rejects_clique_ids_out_of_range(fano, bad_id):
    store = FileStore.random(7, 21, subfile_len=8, seed=4)
    demands = [1, 2, 3, 4, 5, 6, 0]
    packets = run_round(fano, store, demands)
    packets.ids[3] = bad_id
    with pytest.raises(DecodeError, match="outside"):
        decode_round(fano, store, demands, packets)
