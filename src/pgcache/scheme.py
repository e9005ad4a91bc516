"""Concrete coded-caching schemes from caching line graphs.

A scheme instance consists of exact parameters (users K, subpacketization
F, per-user missing count D, per-subfile missing count c, delivery group
size d, cached fraction M/N, rate R), a K x F placement bit matrix whose
1 entries mark subfiles NOT cached at a user, and a delivery plan: the
transmission cliques, one XOR packet per clique.

The in-memory simulator stores N files of F equal subfiles (numpy uint8
payloads), encodes one packet per clique as the XOR of the members'
demanded subfiles, and decodes at each user by cancelling the cached
terms, which proves end-to-end decodability for arbitrary demand vectors.

Scheme documents serialize to JSON (format tag "pgcache/1") with the
field spec, the canonical user matrices, subfile sets, base64 row bitmaps
for the placement, and the delivery cliques; serialization is
deterministic and round-trips byte for byte.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import GF, field_new
from .linegraph import (
    CachingLineGraph,
    ConstructionParams,
    DEFAULT_VERTEX_CAP,
    InvariantError,
    TransmissionCover,
    build_line_graph,
    build_universe,
    enumerate_transmission_cliques,
    verify_line_graph,
)

FORMAT_VERSION = "pgcache/1"
DEFAULT_SUBFILE_LEN = 64


class SchemaError(ValueError):
    """A scheme document is malformed or has the wrong format tag."""


class DecodeError(RuntimeError):
    """A user could not reconstruct its demanded file."""


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeParams:
    """Exact scheme parameters; all identities are enforced at build time."""

    users: int                 # K
    subpacketization: int      # F
    missing_per_user: int      # D
    missing_per_subfile: int   # c
    group_size: int            # d, users served per transmission
    cached_fraction: Fraction  # M/N
    rate: Fraction             # R = c/d

    @property
    def gain(self) -> Fraction:
        """Users served per transmission: K(1 - M/N) / R."""
        return self.users * (1 - self.cached_fraction) / self.rate

    @property
    def transmissions(self) -> int:
        """R*F: packets sent for one demand round."""
        rf = self.rate * self.subpacketization
        if rf.denominator != 1:
            raise InvariantError(f"transmissions: R*F = {rf} is not an integer")
        return rf.numerator


def params_from(cp: ConstructionParams) -> SchemeParams:
    """Closed-form scheme parameters for a construction.

    Rejects m + t = k, where every subfile would be cached everywhere and
    the delivery rate degenerates to 0/0.
    """
    if cp.alpha < 1:
        raise ValueError(
            "m + t = k gives an empty delivery problem (every subfile cached); "
            "need m + t < k"
        )
    users = cp.num_users
    c = cp.subfile_clique_size
    d = cp.m + 2
    big_f = cp.subpacketization
    big_d = cp.user_clique_size
    if users * big_d != big_f * c:
        raise InvariantError(f"params_from: K*D = {users * big_d} != F*c = {big_f * c}")
    cached = 1 - Fraction(c, users)
    rate = Fraction(c, d)
    params = SchemeParams(
        users=users,
        subpacketization=big_f,
        missing_per_user=big_d,
        missing_per_subfile=c,
        group_size=d,
        cached_fraction=cached,
        rate=rate,
    )
    if params.cached_fraction != 1 - Fraction(big_d, big_f):
        raise InvariantError(f"params_from: M/N = {params.cached_fraction} != 1 - D/F")
    if params.gain != d:
        raise InvariantError(f"params_from: gain {params.gain} != group size d = {d}")
    return params


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------

@dataclass
class PlacementMap:
    """K x F bit matrix; entry (k, f) = 1 means user k does NOT cache f."""

    matrix: np.ndarray  # uint8, shape (K, F)

    @property
    def num_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_subfiles(self) -> int:
        return self.matrix.shape[1]

    def row_degrees(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def col_degrees(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    def cached_row(self, user: int) -> np.ndarray:
        """Boolean mask of subfiles cached at the user."""
        return self.matrix[user] == 0

    def row_bitmask(self, user: int) -> int:
        packed = np.packbits(self.matrix[user], bitorder="little").tobytes()
        return int.from_bytes(packed, "little")

    def row_base64(self, user: int) -> str:
        packed = np.packbits(self.matrix[user], bitorder="little").tobytes()
        return base64.b64encode(packed).decode("ascii")

    @classmethod
    def from_base64_rows(cls, rows: list[str], num_subfiles: int) -> "PlacementMap":
        mats = []
        for text in rows:
            raw = np.frombuffer(base64.b64decode(text), dtype=np.uint8)
            bits = np.unpackbits(raw, bitorder="little")
            if len(bits) < num_subfiles:
                raise SchemaError("placement row shorter than subfile count")
            mats.append(bits[:num_subfiles])
        return cls(matrix=np.array(mats, dtype=np.uint8))


def build_placement(graph: CachingLineGraph) -> PlacementMap:
    """Placement bits straight off the line graph: 1 where a vertex exists,
    i.e. where the user's point lies outside the subfile's span."""
    placement = PlacementMap(
        matrix=np.ascontiguousarray(graph.vertex_mask.T, dtype=np.uint8))
    if not (placement.row_degrees() == graph.user_clique_size).all():
        raise InvariantError(
            f"build_placement: every row has D = {graph.user_clique_size} ones")
    if not (placement.col_degrees() == graph.subfile_clique_size).all():
        raise InvariantError(
            f"build_placement: every column has c = {graph.subfile_clique_size} ones")
    return placement


# ----------------------------------------------------------------------
# Delivery plan and file store
# ----------------------------------------------------------------------

@dataclass
class DeliveryPlan:
    """Ordered transmission cliques; row i lists the d members of clique i."""

    users: np.ndarray      # (num_cliques, d) int64
    subfiles: np.ndarray   # (num_cliques, d) int64
    clique_of: np.ndarray  # (K, F) int64, -1 where no vertex

    @classmethod
    def from_cover(cls, cover: TransmissionCover) -> "DeliveryPlan":
        return cls(users=cover.users, subfiles=cover.subfiles, clique_of=cover.clique_of)

    @property
    def num_cliques(self) -> int:
        return self.users.shape[0]

    @property
    def group_size(self) -> int:
        return self.users.shape[1]

    def clique(self, i: int) -> list[tuple[int, int]]:
        return list(zip(self.users[i].tolist(), self.subfiles[i].tolist()))


@dataclass
class FileStore:
    """N files, each split into F subfiles of one fixed byte length."""

    data: np.ndarray  # uint8, shape (N, F, L)

    @classmethod
    def random(cls, num_files: int, num_subfiles: int,
               subfile_len: int = DEFAULT_SUBFILE_LEN, seed: int = 0) -> "FileStore":
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(num_files, num_subfiles, subfile_len),
                            dtype=np.uint8)
        return cls(data=data)

    @classmethod
    def zeros(cls, num_files: int, num_subfiles: int,
              subfile_len: int = DEFAULT_SUBFILE_LEN) -> "FileStore":
        return cls(data=np.zeros((num_files, num_subfiles, subfile_len), dtype=np.uint8))

    @property
    def num_files(self) -> int:
        return self.data.shape[0]

    @property
    def num_subfiles(self) -> int:
        return self.data.shape[1]

    @property
    def subfile_len(self) -> int:
        return self.data.shape[2]

    def file(self, i: int) -> np.ndarray:
        return self.data[i]


@dataclass(eq=False)
class CodedPacket:
    """One XOR transmission; the clique id header ties it to its clique."""

    clique_id: int
    payload: np.ndarray  # uint8, shape (L,)


class UserCache:
    """Read-only view of the store restricted to one user's cached subfiles.

    Every fetch asserts the placement bit is 0, so any attempt to use
    side information the user does not hold fails loudly.
    """

    def __init__(self, store: FileStore, placement: PlacementMap, user: int):
        self.store = store
        self.user = user
        self._cached = placement.cached_row(user)

    def fetch(self, file_indices, subfile_indices) -> np.ndarray:
        file_indices = np.asarray(file_indices, dtype=np.int64)
        subfile_indices = np.asarray(subfile_indices, dtype=np.int64)
        if not self._cached[subfile_indices].all():
            missing = subfile_indices[~self._cached[subfile_indices]]
            raise DecodeError(
                f"user {self.user} asked its cache for uncached subfiles {missing[:5].tolist()}"
            )
        return self.store.data[file_indices, subfile_indices]


def encode(plan: DeliveryPlan, store: FileStore, demands) -> list[CodedPacket]:
    """One packet per clique: XOR over members (u, x) of subfile x of u's demand."""
    demands = np.asarray(demands, dtype=np.int64)
    if demands.ndim != 1:
        raise ValueError("demands must be a flat sequence, one file per user")
    if plan.num_cliques and int(plan.users.max()) >= len(demands):
        raise ValueError("demand vector shorter than the user count")
    if demands.size and (demands.min() < 0 or demands.max() >= store.num_files):
        raise ValueError("demand indexes a file outside the store")
    if plan.num_cliques == 0:
        return []
    payloads = store.data[demands[plan.users[:, 0]], plan.subfiles[:, 0]].copy()
    for j in range(1, plan.group_size):
        payloads ^= store.data[demands[plan.users[:, j]], plan.subfiles[:, j]]
    return [CodedPacket(i, payloads[i]) for i in range(plan.num_cliques)]


def _payload_matrix(packets: list[CodedPacket], num_cliques: int,
                    subfile_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Packets arranged by clique id, plus a mask of which ids arrived."""
    ids = np.fromiter((p.clique_id for p in packets), dtype=np.int64, count=len(packets))
    bad = (ids < 0) | (ids >= num_cliques)
    if bad.any():
        raise DecodeError(f"packet clique id {int(ids[bad][0])} is outside "
                          f"[0, {num_cliques})")
    mat = np.zeros((num_cliques, subfile_len), dtype=np.uint8)
    seen = np.zeros(num_cliques, dtype=bool)
    for p in packets:
        mat[p.clique_id] = p.payload
    seen[ids] = True
    return mat, seen


def decode(plan: DeliveryPlan, placement: PlacementMap, user: int,
           packets: list[CodedPacket], cache: UserCache, demands,
           _payloads: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Reconstruct the user's demanded file; returns an (F, L) array.

    Cached subfiles come straight from the cache view.  For each missing
    subfile the packet of its clique is XORed with the other members'
    subfiles, all of which the clique structure guarantees to be cached.
    """
    demands = np.asarray(demands, dtype=np.int64)
    want = int(demands[user])
    cached_mask = placement.cached_row(user)
    out = np.zeros((placement.num_subfiles, cache.store.subfile_len), dtype=np.uint8)
    if cached_mask.any():
        cached_idx = np.nonzero(cached_mask)[0]
        out[cached_idx] = cache.fetch(np.full(len(cached_idx), want), cached_idx)
    missing_idx = np.nonzero(~cached_mask)[0]
    if len(missing_idx) == 0:
        return out

    if _payloads is None:
        _payloads = _payload_matrix(packets, plan.num_cliques, cache.store.subfile_len)
    payloads, seen = _payloads
    clique_ids = plan.clique_of[user, missing_idx]
    if (clique_ids < 0).any():
        raise DecodeError(f"user {user}: some missing subfile has no clique")
    if not seen[clique_ids].all():
        lost = clique_ids[~seen[clique_ids]]
        raise DecodeError(f"user {user}: missing packet for clique {lost[:5].tolist()}")
    acc = payloads[clique_ids].copy()

    member_users = plan.users[clique_ids]      # (D, d)
    member_subs = plan.subfiles[clique_ids]    # (D, d)
    for j in range(plan.group_size):
        others = member_users[:, j] != user
        if not others.any():
            continue
        rows = np.nonzero(others)[0]
        contrib = cache.fetch(demands[member_users[rows, j]], member_subs[rows, j])
        acc[rows] ^= contrib
    out[missing_idx] = acc
    return out


# ----------------------------------------------------------------------
# Scheme instances
# ----------------------------------------------------------------------

@dataclass
class SchemeInstance:
    """A fully realized scheme: parameters, placement and delivery plan."""

    construction: ConstructionParams
    params: SchemeParams
    field_spec: tuple[int, int, tuple[int, ...]]  # (p, n, modulus coefficients)
    root_rows: tuple[tuple[int, ...], ...]
    user_matrices: tuple[tuple[tuple[int, ...], ...], ...]
    subfile_sets: tuple[tuple[int, ...], ...]
    placement: PlacementMap
    delivery: DeliveryPlan


def build_scheme(cp: ConstructionParams,
                 max_vertices: int | None = DEFAULT_VERTEX_CAP,
                 validate: bool = True) -> SchemeInstance:
    """Construct the full scheme for the parameters."""
    universe = build_universe(cp, max_vertices=max_vertices)
    graph = build_line_graph(universe)
    if validate:
        report = verify_line_graph(graph)
        if not report.ok:
            raise InvariantError(f"verify_line_graph: construction failed validation: "
                                 f"{report.violations}")
    placement = build_placement(graph)
    cover = enumerate_transmission_cliques(graph)
    params = params_from(cp)
    if (params.missing_per_user, params.missing_per_subfile) != (
            graph.user_clique_size, graph.subfile_clique_size):
        raise InvariantError("build_scheme: closed-form D and c match the line graph")
    f = cp.field
    return SchemeInstance(
        construction=cp,
        params=params,
        field_spec=(f.p, f.n, f.modulus),
        root_rows=universe.root.rows,
        user_matrices=universe.user_matrices,
        subfile_sets=tuple(universe.subfile_sets),
        placement=placement,
        delivery=DeliveryPlan.from_cover(cover),
    )


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------

def splitmix64(seed: int):
    """Deterministic 64-bit stream used for demand sampling."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    mask = 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield (z ^ (z >> 31)) & mask


def demand_stream(seed: int, num_users: int, num_files: int):
    """Endless stream of demand vectors drawn from the splitmix64 stream."""
    gen = splitmix64(seed)
    while True:
        yield [next(gen) % num_files for _ in range(num_users)]


@dataclass
class SimulationReport:
    trials: int
    users: int
    packet_count: int
    measured_rf: Fraction
    failures: int
    per_user_failures: list[int]

    @property
    def ok(self) -> bool:
        return self.failures == 0


def run_round(instance: SchemeInstance, store: FileStore, demands) -> list[CodedPacket]:
    if len(demands) != instance.params.users:
        raise ValueError(
            f"demand vector has {len(demands)} entries for {instance.params.users} users"
        )
    return encode(instance.delivery, store, demands)


def decode_round(instance: SchemeInstance, store: FileStore, demands,
                 packets: list[CodedPacket]) -> list[bool]:
    """Decode every user and compare against the demanded file exactly."""
    payloads = _payload_matrix(packets, instance.delivery.num_cliques, store.subfile_len)
    results = []
    for user in range(instance.params.users):
        cache = UserCache(store, instance.placement, user)
        got = decode(instance.delivery, instance.placement, user, packets, cache,
                     demands, _payloads=payloads)
        results.append(bool(np.array_equal(got, store.file(int(demands[user])))))
    return results


def run_trials(instance: SchemeInstance, trials: int, seed: int,
               num_files: int | None = None,
               subfile_len: int = DEFAULT_SUBFILE_LEN,
               extra_demands: list[list[int]] | None = None) -> SimulationReport:
    """Seeded random demand rounds (plus any explicit extra rounds)."""
    k = instance.params.users
    n = num_files if num_files is not None else k
    store = FileStore.random(n, instance.params.subpacketization, subfile_len, seed=seed)
    vectors = []
    stream = demand_stream(seed, k, n)
    for _ in range(trials):
        vectors.append(next(stream))
    if extra_demands:
        vectors.extend(extra_demands)
    per_user = [0] * k
    failures = 0
    packet_count = instance.delivery.num_cliques
    for demands in vectors:
        packets = run_round(instance, store, demands)
        if len(packets) != packet_count:
            raise InvariantError(f"run_trials: {len(packets)} packets, expected {packet_count}")
        for user, ok in enumerate(decode_round(instance, store, demands, packets)):
            if not ok:
                failures += 1
                per_user[user] += 1
    return SimulationReport(
        trials=len(vectors),
        users=k,
        packet_count=packet_count,
        measured_rf=Fraction(packet_count, instance.params.subpacketization),
        failures=failures,
        per_user_failures=per_user,
    )


# ----------------------------------------------------------------------
# Serialization: scheme documents and packet traces
# ----------------------------------------------------------------------

def _document(instance: SchemeInstance) -> dict:
    p, n, modulus = instance.field_spec
    cp = instance.construction
    pr = instance.params
    return {
        "format": FORMAT_VERSION,
        "construction": {"k": cp.k, "m": cp.m, "t": cp.t, "q": cp.q},
        "field": {"p": p, "n": n, "modulus": list(modulus)},
        "params": {
            "users": pr.users,
            "subpacketization": pr.subpacketization,
            "missing_per_user": pr.missing_per_user,
            "missing_per_subfile": pr.missing_per_subfile,
            "group_size": pr.group_size,
            "cached_fraction": [pr.cached_fraction.numerator, pr.cached_fraction.denominator],
            "rate": [pr.rate.numerator, pr.rate.denominator],
        },
        "root": [list(row) for row in instance.root_rows],
        "users": [[list(row) for row in mat] for mat in instance.user_matrices],
        "subfiles": [list(xs) for xs in instance.subfile_sets],
        "placement": [
            instance.placement.row_base64(u) for u in range(pr.users)
        ],
        "delivery": [
            [[int(u), int(x)] for u, x in zip(urow, xrow)]
            for urow, xrow in zip(instance.delivery.users.tolist(),
                                  instance.delivery.subfiles.tolist())
        ],
    }


def serialize(instance: SchemeInstance) -> str:
    """Deterministic JSON rendering of the scheme (format "pgcache/1")."""
    return json.dumps(_document(instance), sort_keys=True, separators=(",", ":"))


def deserialize(text: str) -> SchemeInstance:
    """Parse a scheme document; raises SchemaError on any malformation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("format") != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported format {doc.get('format')!r}, expected {FORMAT_VERSION!r}"
        )
    required = {"construction", "field", "params", "root", "users",
                "subfiles", "placement", "delivery"}
    missing = required - doc.keys()
    if missing:
        raise SchemaError(f"document lacks keys {sorted(missing)}")
    try:
        cp = ConstructionParams(**doc["construction"])
        fs = doc["field"]
        f = field_new(fs["p"], fs["n"])
        if list(f.modulus) != fs["modulus"]:
            raise SchemaError("field modulus does not match the deterministic choice")
        pd = doc["params"]
        params = SchemeParams(
            users=pd["users"],
            subpacketization=pd["subpacketization"],
            missing_per_user=pd["missing_per_user"],
            missing_per_subfile=pd["missing_per_subfile"],
            group_size=pd["group_size"],
            cached_fraction=Fraction(*pd["cached_fraction"]),
            rate=Fraction(*pd["rate"]),
        )
        placement = PlacementMap.from_base64_rows(doc["placement"], params.subpacketization)
        if placement.num_users != params.users:
            raise SchemaError("placement row count does not match user count")
        delivery = _delivery_plan(doc["delivery"], placement, params.group_size)
        return SchemeInstance(
            construction=cp,
            params=params,
            field_spec=(f.p, f.n, f.modulus),
            root_rows=tuple(tuple(row) for row in doc["root"]),
            user_matrices=tuple(
                tuple(tuple(row) for row in mat) for mat in doc["users"]
            ),
            subfile_sets=tuple(tuple(xs) for xs in doc["subfiles"]),
            placement=placement,
            delivery=delivery,
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed scheme document: {exc}") from exc


def _delivery_plan(rows, placement: PlacementMap, group_size: int) -> DeliveryPlan:
    """Delivery cliques of a document, each entry checked in one pass: a
    [user, subfile] pair in range, a vertex of the placement, and not
    already in an earlier clique."""
    pairs = np.array(rows, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, group_size, 2)
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise SchemaError("delivery entries must be [user, subfile] pairs")
    if pairs.shape[1] != group_size:
        raise SchemaError("delivery clique size does not match group size")
    users, subs = np.ascontiguousarray(pairs[:, :, 0]), np.ascontiguousarray(pairs[:, :, 1])
    k, f = placement.matrix.shape
    outside = (users < 0) | (users >= k) | (subs < 0) | (subs >= f)
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise SchemaError(f"delivery clique {i} entry {j} {pairs[i, j].tolist()} "
                          f"is outside {k} users x {f} subfiles")
    not_vertex = placement.matrix[users, subs] != 1
    if not_vertex.any():
        i, j = np.argwhere(not_vertex)[0]
        raise SchemaError(f"delivery clique {i} entry {j} {pairs[i, j].tolist()} "
                          f"is cached, not a vertex")
    clique_of = np.full((k, f), -1, dtype=np.int64)
    clique_of[users, subs] = np.arange(len(pairs))[:, None]
    if np.count_nonzero(clique_of >= 0) != users.size:
        flat = (users * f + subs).reshape(-1)
        _, first = np.unique(flat, return_index=True)
        again = np.setdiff1d(np.arange(flat.size), first)[0]
        i, j = divmod(int(again), group_size)
        raise SchemaError(f"delivery clique {i} entry {j} {pairs[i, j].tolist()} "
                          f"repeats an earlier entry")
    return DeliveryPlan(users=users, subfiles=subs, clique_of=clique_of)


TRACE_MAGIC = b"PGCT"


def packet_trace_bytes(packets: list[CodedPacket]) -> bytes:
    """Binary packet dump: magic, u32 count, then (u32 id, u32 len, payload)."""
    parts = [TRACE_MAGIC, len(packets).to_bytes(4, "little")]
    for p in packets:
        payload = p.payload.tobytes()
        parts.append(int(p.clique_id).to_bytes(4, "little"))
        parts.append(len(payload).to_bytes(4, "little"))
        parts.append(payload)
    return b"".join(parts)


def parse_packet_trace(blob: bytes) -> list[CodedPacket]:
    if blob[:4] != TRACE_MAGIC:
        raise SchemaError("not a packet trace (bad magic)")
    count = int.from_bytes(blob[4:8], "little")
    packets = []
    offset = 8
    for _ in range(count):
        if offset + 8 > len(blob):
            raise SchemaError("truncated packet trace")
        cid = int.from_bytes(blob[offset:offset + 4], "little")
        length = int.from_bytes(blob[offset + 4:offset + 8], "little")
        offset += 8
        if offset + length > len(blob):
            raise SchemaError("truncated packet payload")
        payload = np.frombuffer(blob[offset:offset + length], dtype=np.uint8).copy()
        offset += length
        packets.append(CodedPacket(cid, payload))
    return packets
