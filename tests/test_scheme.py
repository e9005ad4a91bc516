"""Scheme parameters, placement, XOR delivery, simulator, serialization."""

import hashlib
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pgcache.linegraph import ConstructionParams, build_line_graph, build_universe
from pgcache.scheme import (
    CodedPacket,
    DecodeError,
    DeliveryPlan,
    FileStore,
    PlacementMap,
    SchemaError,
    UserCache,
    build_placement,
    build_scheme,
    decode,
    decode_round,
    demand_stream,
    deserialize,
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
    assert (pl.row_degrees() == 12).all()
    assert (pl.col_degrees() == 4).all()
    # each subfile is cached at K - c = 3 users
    assert ((pl.matrix == 0).sum(axis=0) == 3).all()


def test_placement_total_ones():
    g = build_line_graph(build_universe(ConstructionParams(4, 1, 2, 2)))
    pl = build_placement(g)
    assert int(pl.matrix.sum()) == g.vertex_count


def test_placement_bitmask_roundtrip(fano):
    pl = fano.placement
    again = PlacementMap.from_base64_rows(
        [pl.row_base64(u) for u in range(pl.num_users)], pl.num_subfiles)
    assert (again.matrix == pl.matrix).all()
    assert pl.row_bitmask(0).bit_count() == 12


# ----------------------------------------------------------------------
# Encode
# ----------------------------------------------------------------------

def test_single_clique_toy_xor():
    users = np.array([[0, 1]])
    subs = np.array([[1, 0]])
    clique_of = np.full((2, 2), -1, dtype=np.int64)
    clique_of[0, 1] = 0
    clique_of[1, 0] = 0
    plan = DeliveryPlan(users=users, subfiles=subs, clique_of=clique_of)
    store = FileStore.random(2, 2, subfile_len=8, seed=5)
    packets = encode(plan, store, [1, 0])
    want = store.data[1, 1] ^ store.data[0, 0]
    assert (packets[0].payload == want).all()


def test_zero_store_gives_zero_packets(fano):
    store = FileStore.zeros(7, 21, subfile_len=4)
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
    assert not all(results)


def test_decode_missing_packet_errors(fano):
    store = FileStore.random(7, 21, subfile_len=16, seed=3)
    demands = [0] * 7
    packets = run_round(fano, store, demands)[:-1]
    victim = int(fano.delivery.users[-1, 0])
    with pytest.raises(DecodeError):
        decode(fano.delivery, fano.placement, victim, packets,
               UserCache(store, fano.placement, victim), demands)
    # users untouched by the dropped clique still decode
    spared = [u for u in range(7) if u not in fano.delivery.users[-1]]
    got = decode(fano.delivery, fano.placement, spared[0], packets,
                 UserCache(store, fano.placement, spared[0]), demands)
    assert np.array_equal(got, store.file(0))


def test_decode_with_nothing_missing_returns_cache():
    # degenerate scheme: everything cached, no cliques at all
    placement = PlacementMap(matrix=np.zeros((2, 3), dtype=np.uint8))
    plan = DeliveryPlan(
        users=np.zeros((0, 2), dtype=np.int64),
        subfiles=np.zeros((0, 2), dtype=np.int64),
        clique_of=np.full((2, 3), -1, dtype=np.int64),
    )
    store = FileStore.random(2, 3, subfile_len=4, seed=1)
    got = decode(plan, placement, 0, [], UserCache(store, placement, 0), [1, 0])
    assert np.array_equal(got, store.file(1))


def test_cache_view_refuses_uncached_reads(fano):
    store = FileStore.random(7, 21, subfile_len=4, seed=0)
    cache = UserCache(store, fano.placement, 0)
    missing = int(np.nonzero(fano.placement.matrix[0])[0][0])
    with pytest.raises(DecodeError):
        cache.fetch([0], [missing])


def test_rate_identity_across_instances():
    for cp in [FANO, ConstructionParams(4, 1, 2, 2), ConstructionParams(5, 2, 2, 2)]:
        inst = build_scheme(cp)
        assert Fraction(inst.delivery.num_cliques, inst.params.subpacketization) \
            == inst.params.rate
        # every uncached pair is covered exactly once
        covered = inst.delivery.clique_of >= 0
        assert (covered == (inst.placement.matrix == 1)).all()


def test_decodability_at_sixty_three_users():
    # largest user count that stays under the default vertex cap
    cp = ConstructionParams(6, 1, 1, 2)
    inst = build_scheme(cp)
    assert inst.params.users == 63
    rep = run_trials(inst, trials=25, seed=63, num_files=63, subfile_len=4,
                     extra_demands=[[0] * 63, list(range(63))])
    assert rep.failures == 0
    assert rep.packet_count == inst.params.transmissions


def test_run_trials_report(fano):
    rep = run_trials(fano, trials=10, seed=123, num_files=9, subfile_len=8,
                     extra_demands=[[0] * 7])
    assert rep.trials == 11
    assert rep.failures == 0
    assert rep.packet_count == 28
    assert rep.measured_rf == Fraction(4, 3)


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
    assert again.subfile_sets == fano.subfile_sets
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


def test_coded_packet_header(fano):
    store = FileStore.zeros(7, 21, subfile_len=4)
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
    return json.dumps(doc)


@pytest.mark.parametrize("case,why", [
    ("negative", "outside"),
    ("out-of-range", "outside"),
    ("not-a-vertex", "not a vertex"),
    ("repeated", "repeats an earlier"),
])
def test_deserialize_rejects_bad_delivery_entries(fano, case, why):
    with pytest.raises(SchemaError, match=why):
        deserialize(_bad_delivery(fano, case))


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
    packets[3] = CodedPacket(bad_id, packets[3].payload)
    with pytest.raises(DecodeError, match="outside"):
        decode_round(fano, store, demands, packets)
