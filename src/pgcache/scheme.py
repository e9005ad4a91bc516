"""Concrete coded-caching schemes from caching line graphs.

A scheme instance consists of its construction, a ConstructionParams
whose closed forms are the exact parameters (users K, subpacketization F,
per-user missing count D, per-subfile missing count c, delivery group
size d, cached fraction M/N, rate R), a K x F placement bit matrix whose
1 entries mark subfiles NOT cached at a user, and a delivery plan: the
transmission cliques, one XOR packet per clique.  The placement is a
read-only view of the universe's outside mask, which is the line graph.

A clique's d members (u_j, x_j) can all decode its packet only if each
caches the others' subfiles: placement[u_j, x_j'] == 0 for j != j'.  That
is a property of the plan, not of a round, so `delivery_violation` checks
it once, together with the cliques being disjoint vertices that cover the
line graph, whenever a scheme is built or loaded.  The plan is int32 and
every pass over it walks it in cache-sized blocks of cliques.  The check
packs, per subfile, the users that do not cache it as bits of uint64
words; a clique passes when its users' bits are distinct and subfile x_j's
word, masked to the clique's users, is member j's bit alone.  A covered
mask of F*K bytes catches repeated and missing vertices, and only a plan
that fails is walked again, check by check, for its message.

The in-memory simulator stores N files of F equal subfiles (numpy uint8
payloads) and encodes a round as one (C, L) array whose row i is the XOR
of clique i's members' demanded subfiles.  Both encode and decode make
one pass over the plan in cache-sized blocks of cliques, gathering
each member's subfiles from the store, seen as N*F rows of L bytes,
into a buffer reused across blocks; the plan's users and subfiles are
range-checked once per call, before the first block.  Cliques are
disjoint, so the blocks are independent: one block runner,
_each_block, splits them into one contiguous run per worker, a worker
per CPU (two at most), the calling thread and helper threads whose
numpy gathers and XORs run without the GIL, each with its own
buffers.  A built or loaded plan is stored column by column, so each
member column of a block is one contiguous row of the row index.  The
output is the same bytes on any number of workers, and a failure is
raised for the first failing block.  Decoding XORs a block's packets
and its d members' subfiles into one residual buffer, so it keeps no
(C, L) residual; packets in clique order, as encode sends them, are
the batch's rows, and any other order is taken by clique id.  Member j
recovers the packet XOR the other members' subfiles, which differs from
its own subfile by exactly the residual, the packet XOR all d subfiles.
So a user decodes its file exactly when every clique that contains it
leaves a zero residual; its cached subfiles are exact by construction.
run_trials holds at most K files, in a cache of slots that a round
fills in place, jumping ahead in the generator, only with files it lacks.

Scheme documents serialize to JSON (format tag "pgcache/1") with the
field spec, the canonical user matrices, subfile sets, base64 row bitmaps
for the placement, and the delivery cliques.  A document is a pure
function of the construction, which its sorted keys put first:
document_chunks yields it as one stream of ASCII byte chunks, rendering
the two large integer fields, subfiles and delivery, block by block
from their numpy arrays, delivery straight from the plan's users and
subfiles; serialize joins the chunks.  Loading a canonical document
rebuilds the scheme from the construction at its start, so build_scheme
checks the plan, and compares the input with that scheme's chunks in
order; when every byte matches, nothing is parsed.  Any other text
takes the general path: subfiles and delivery are read with numpy and
the rest with json.loads, the construction is rebuilt (or, when the
document starts canonically, the universe and placement that the
comparison built are reused), any stored field that differs from the
rebuilt one is refused, and the stored delivery plan is checked as
above, as int64, before it is narrowed to int32.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import os
import re
import threading
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linegraph
from .linegraph import (
    ConstructionParams,
    DEFAULT_VERTEX_CAP,
    DeliveryPlan,
    InvariantError,
    Universe,
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


def params_from(cp: ConstructionParams) -> ConstructionParams:
    """Returns cp, which carries the closed forms; perfbench/workloads.py calls this."""
    return cp


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------

@dataclass
class PlacementMap:
    """K x F bit matrix; entry (k, f) = 1 means user k does NOT cache f.
    From build_placement it is the transpose of the read-only vertex mask."""

    matrix: np.ndarray  # bool (uint8 also works), shape (K, F)

    @property
    def num_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_subfiles(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def _packed_rows(self) -> np.ndarray:
        """Every row as little-endian bytes, packed in one pass; a row-major
        copy packs faster than the column-major matrix."""
        return np.packbits(np.ascontiguousarray(self.matrix), axis=1, bitorder="little")

    def row_base64(self, user: int) -> str:
        return base64.b64encode(self._packed_rows[user]).decode("ascii")


def build_placement(universe: Universe) -> PlacementMap:
    """Placement bits straight off the line graph: 1 where a vertex exists,
    i.e. where the user's point lies outside the subfile's span: a view of
    the outside mask, whose counts build_line_graph checked."""
    return PlacementMap(matrix=universe.outside_mask.T)


# ----------------------------------------------------------------------
# Delivery plan check, file store and packets
# ----------------------------------------------------------------------

def delivery_violation(plan: DeliveryPlan, placement: PlacementMap) -> str | None:
    """Why the plan cannot deliver under the placement, or None if it can.

    Every entry must be a vertex (an uncached (user, subfile) pair) and in
    exactly one clique, the cliques must cover every vertex, and each
    member of a clique must cache the other members' subfiles.  One pass
    over the plan in blocks (`_plan_fits`) tells a plan that delivers;
    only a plan that does not is walked again, check by check, for the
    message (`_first_violation`).
    """
    if _plan_fits(plan, placement.matrix):
        return None
    return _first_violation(plan, placement.matrix)


def _bit_words(mask: np.ndarray) -> np.ndarray:
    """An (R, K) bool mask as a (ceil(K / 64), R) table of uint64 words:
    bit u % 64 of word [u // 64, r] is set where mask[r, u].  Block by
    block, the rows are copied into a buffer zero-padded to whole words,
    which one flat packbits turns into the rows' words."""
    rows, k = mask.shape
    width = -(-k // 64) * 64
    packed = np.empty(rows * width // 8, dtype=np.uint8)
    size = linegraph.BLOCK_ROWS
    padded = np.zeros((min(rows, size), width), dtype=bool)
    for lo in range(0, rows, size):
        block = padded[:len(mask[lo:lo + size])]
        block[:, :k] = mask[lo:lo + size]
        packed[lo * width // 8:(lo + len(block)) * width // 8] = np.packbits(
            block, axis=None, bitorder="little")
    return np.ascontiguousarray(packed.view("<u8").reshape(rows, width // 64).T)


def _cells(users: np.ndarray, subfiles: np.ndarray, k: int) -> np.ndarray:
    """Entries as int64 indexes subfile * K + user of the placement in the
    order it is stored, so that F * K past 2^31 cannot wrap."""
    return subfiles.astype(np.int64) * k + users


def _plan_in_range(plan: DeliveryPlan, users: int, subfiles: int) -> bool:
    """Whether every user of the plan is in [0, users) and every subfile
    in [0, subfiles), by one max per array: seen as unsigned, a negative
    entry is past any bound."""
    return all(a.size == 0 or int(a.view(f"u{a.itemsize}").max()) < bound
               for a, bound in ((plan.users, users), (plan.subfiles, subfiles)))


def _plan_fits(plan: DeliveryPlan, mat: np.ndarray) -> bool:
    """Whether the plan delivers under the (K, F) placement, in one pass
    after one range check of the whole plan (`_plan_in_range`).

    words[:, x] holds, as bits, the users that do not cache subfile x, and
    bits[:, u] is user u's bit alone; each row of either holds 64 users.
    A clique's members are distinct users when no member's bit is already
    in the OR Y of the bits before it.  Then words[:, x_j] & Y is member
    j's bit alone exactly when (u_j, x_j) is a vertex and every other
    member caches x_j: the vertex check and the side-information check at
    once.  The entries are scattered into a covered mask, so a repeated
    entry or a vertex in no clique shows in its count.
    """
    k, f = mat.shape
    if not _plan_in_range(plan, k, f):
        return False
    words = _bit_words(mat.T)
    bits = _bit_words(np.eye(k, dtype=bool))
    covered = np.zeros(f * k, dtype=bool)
    for _, users, subs in plan.blocks():
        # (W, d, B): the block runs along the last axis, so that each step
        # is a long run, not d or W values at a time.
        member = np.take(bits, users.T, axis=1)
        group = member[:, 0].copy()
        for j in range(1, plan.group_size):
            if (group & member[:, j]).any():
                return False
            group |= member[:, j]
        if not np.array_equal(np.take(words, subs.T, axis=1) & group[:, None], member):
            return False
        covered[_cells(users, subs, k)] = True
    return np.count_nonzero(covered) == plan.users.size == np.count_nonzero(mat)


def _first_violation(plan: DeliveryPlan, mat: np.ndarray) -> str:
    """The first failure of the plan's checks under the (K, F) placement,
    each over the whole plan before the next: entries in range, entries
    that are vertices, no entry twice, every vertex covered, then side
    information member by member.  Each check walks the plan in blocks
    and reports its first failure in row-major order; InvariantError
    when none fails."""
    k, f = mat.shape
    # The mask in the order it is stored: flat[x * k + u] = mat[u, x], a
    # view when mat is the transpose of a universe's outside mask.
    flat = np.ravel(mat, order="F")

    def first_entry(block: slice, users, subs, where: np.ndarray) -> str:
        i, j = np.argwhere(where)[0]
        return (f"delivery clique {block.start + i} entry {j} "
                f"{[int(users[i, j]), int(subs[i, j])]}")

    for block, users, subs in plan.blocks():
        outside = (users < 0) | (users >= k) | (subs < 0) | (subs >= f)
        if outside.any():
            return (f"{first_entry(block, users, subs, outside)} is outside "
                    f"{k} users x {f} subfiles")
    for block, users, subs in plan.blocks():
        not_vertex = flat[_cells(users, subs, k)] != 1
        if not_vertex.any():
            return f"{first_entry(block, users, subs, not_vertex)} is cached, not a vertex"
    covered = np.zeros(f * k, dtype=bool)
    for block, users, subs in plan.blocks():
        cells = _cells(users, subs, k)
        again = covered[cells]
        _, first = np.unique(cells, return_index=True)
        later = np.ones(cells.size, dtype=bool)
        later[first] = False
        again |= later.reshape(cells.shape)
        if again.any():
            return f"{first_entry(block, users, subs, again)} repeats an earlier entry"
        covered[cells] = True
    if plan.users.size != np.count_nonzero(flat):
        u, x = np.argwhere((mat == 1) & ~covered.reshape(f, k).T)[0]
        return f"vertex ({u}, {x}) is in no delivery clique"
    for j in range(plan.group_size):
        for block, users, subs in plan.blocks():
            # placement[u_j, x_j'] for the members j' of each clique: 1 at
            # j' = j (a vertex), 0 elsewhere (u_j caches the side information).
            side = flat[_cells(users[:, j:j + 1], subs, k)]
            if np.count_nonzero(side) != len(side):
                side[:, j] = 0
                i, other = np.argwhere(side)[0]
                return (f"delivery clique {block.start + i}: user {users[i, j]} does not "
                        f"cache subfile {subs[i, other]} of entry {other}, so it lacks "
                        f"the side information to decode entry {j}")
    # Only a plan that _plan_fits refused comes here, so the two checks
    # disagree; the plan is not taken as one that delivers.
    raise InvariantError("delivery_violation: _plan_fits refused the plan, but "
                         "_first_violation found no failing check")


@dataclass
class FileStore:
    """N files, each split into F subfiles of one fixed byte length."""

    data: np.ndarray  # uint8, shape (N, F, L)

    @classmethod
    def random(cls, num_files: int, num_subfiles: int,
               subfile_len: int = DEFAULT_SUBFILE_LEN, seed: int = 0) -> "FileStore":
        """The bytes of default_rng(seed).integers(0, 256, dtype=uint8), which
        numpy takes from the little-endian bytes of the generator's 64-bit
        outputs; drawn here as those outputs, eight bytes at a time."""
        for name, value in (("num_files", num_files), ("num_subfiles", num_subfiles),
                            ("subfile_len", subfile_len)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        shape = (num_files, num_subfiles, subfile_len)
        size = math.prod(shape)
        words = np.random.default_rng(seed).integers(0, 2 ** 64, size=-(-size // 8),
                                                     dtype="<u8")
        return cls(data=words.view(np.uint8)[:size].reshape(shape))

    def draw(self, slots, files, seed: int = 0) -> None:
        """Fill slot slots[i] with file files[i] of FileStore.random(N, F, L,
        seed), for any N past it, each drawn on its own.  File n starts at
        byte n*F*L of the generator's output, so the generator jumps to its
        64-bit output n*F*L // 8 (PCG64 advances in O(log n) steps) and the
        leading bytes of that word are dropped."""
        if min(files, default=0) < 0:
            raise ValueError(f"files must be >= 0, got {min(files)}")
        size = self.num_subfiles * self.subfile_len
        rng = np.random.default_rng(seed)
        start = rng.bit_generator.state
        for slot, n in zip(slots, files):
            word, skip = divmod(int(n) * size, 8)
            rng.bit_generator.state = start
            rng.bit_generator.advance(word)
            words = rng.integers(0, 2 ** 64, size=-(-(skip + size) // 8), dtype="<u8")
            self.data[slot] = words.view(np.uint8)[skip:skip + size].reshape(self.data.shape[1:])

    @property
    def num_files(self) -> int:
        return self.data.shape[0]

    @property
    def num_subfiles(self) -> int:
        return self.data.shape[1]

    @property
    def subfile_len(self) -> int:
        return self.data.shape[2]


@dataclass(eq=False)
class CodedPacket:
    """One XOR transmission; the clique id header ties it to its clique."""

    clique_id: int
    payload: np.ndarray  # uint8, shape (L,)


@dataclass(eq=False)
class Packets:
    """One round's XOR transmissions: payloads[i] is the packet of clique ids[i]."""

    ids: np.ndarray       # (C,) integers; int32 from encode
    payloads: np.ndarray  # (C, L) uint8

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> CodedPacket:
        """Packet i; its payload is a view of row i, so writes reach the batch."""
        return CodedPacket(int(self.ids[i]), self.payloads[i])


def _demand_vector(num_files: int, demands) -> np.ndarray:
    demands = np.asarray(demands, dtype=np.int64)
    if demands.ndim != 1:
        raise ValueError("demands must be a flat sequence, one file per user")
    if demands.size and (demands.min() < 0 or demands.max() >= num_files):
        raise ValueError("demand indexes a file outside the store")
    return demands


# The most workers _each_block takes.  Each holds up to two (B, L)
# buffers, a (d, B) row index and the transient intp copy of its block's
# users that the index gather makes, about 0.8 MiB at (6,3,2,2) with
# L = 64; a third worker could pass the 2 MiB that encode may hold beyond
# its payloads.
_MAX_WORKERS = 2


def _each_block(plan: DeliveryPlan, store: FileStore, demands: np.ndarray,
                kernel, buffers: int) -> None:
    """Call kernel(block, at, scratch) for each block of cliques: its slice
    of the plan, the (d, B) int64 rows demands[users] * F + subfiles of its
    members' demanded subfiles in the store read as N*F rows of L bytes,
    and `buffers` (B, L) uint8 scratch buffers.

    The whole plan is range-checked once, before any worker starts
    (`_plan_in_range`): a negative user would wrap to another user's
    demand, and a subfile past F would name a row of the next file.  With
    the demands already in [0, N), every row is then in [0, N*F).  Only a
    plan that fails is walked block by block, for the message of its
    first failing block.

    The blocks are disjoint cliques, so they are split into n contiguous
    runs, one per worker, where n is the number of CPUs this process may
    run on, capped by the block count and by _MAX_WORKERS (os.cpu_count()
    where the platform has no affinity mask).  The calling thread is
    worker 0, the others are threads whose gathers and XORs run without
    the GIL.  Every buffer is made here before any thread starts, so no
    thread grows a heap of its own.  A worker stops at its first failure;
    once every thread is joined, the failure of the lowest worker, whose
    run comes first, is raised, as a walk in block order would raise it.

    The index and the kernels gather with ndarray.take(at, 0, out, "clip"):
    every index is in range, so nothing is clipped, but with out= and the
    default mode="raise" numpy gathers into a temporary first, then copies.
    They call the method, not np.take, whose Python wrapper would hold the
    GIL between a worker's gathers, the time the other worker waits for it.
    """
    f = store.num_subfiles
    if not _plan_in_range(plan, len(demands), f):
        for _, users, subfiles in plan.blocks():
            if users.min() < 0:
                raise ValueError("delivery plan names a negative user")
            if users.max() >= len(demands):
                raise ValueError("demand vector shorter than the user count")
            if subfiles.min() < 0 or subfiles.max() >= f:
                raise ValueError("delivery plan names a subfile outside the store")
    offsets = demands * f
    size = linegraph.BLOCK_ROWS
    rows = min(plan.num_cliques, size)
    blocks = -(-plan.num_cliques // size)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n = max(1, min(cpus, blocks, _MAX_WORKERS))
    index = [np.empty(plan.group_size * rows, dtype=np.int64) for _ in range(n)]
    scratch = [np.empty((buffers, rows, store.subfile_len), dtype=np.uint8)
               for _ in range(n)]
    failed: list[Exception | None] = [None] * n
    users, subfiles = plan.users, plan.subfiles

    def work(w: int) -> None:
        for i in range(w * blocks // n, (w + 1) * blocks // n):
            block = slice(i * size, (i + 1) * size)
            members = users[block].T
            try:
                at = index[w][:members.size].reshape(members.shape)
                offsets.take(members, 0, at, "clip")
                at += subfiles[block].T
                kernel(block, at, scratch[w][:, :members.shape[1]])
            except Exception as exc:  # raised by the caller, lowest worker first
                failed[w] = exc
                return

    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, n)]
    try:
        for helper in helpers:
            helper.start()
        work(0)
    finally:
        for helper in helpers:
            if helper.is_alive():  # not a helper that failed to start
                helper.join()
    for exc in failed:
        if exc is not None:
            raise exc


def _store_rows(store: FileStore) -> np.ndarray:
    # reshape(-1, L) cannot infer the row count when L = 0.
    return store.data.reshape(store.num_files * store.num_subfiles, store.subfile_len)


def encode(plan: DeliveryPlan, store: FileStore, demands) -> Packets:
    """One packet per clique: XOR over members (u, x) of subfile x of u's demand.

    Each block of cliques takes one row gather per member from the store
    read as N*F rows: ndarray.take copies each row in one step, where
    data[file, subfile] with two index arrays goes through numpy's generic
    fancy-index iterator.  Member 0 is gathered straight into the block's
    payload rows, and every other member into its worker's (B, L) buffer,
    reused across blocks, which is XOR-ed into them.  The blocks run on
    the workers of _each_block; each writes only its own payload rows.
    """
    demands = _demand_vector(store.num_files, demands)
    rows = _store_rows(store)
    payloads = np.empty((plan.num_cliques, store.subfile_len), dtype=np.uint8)

    def xor_members(block: slice, at: np.ndarray, scratch: np.ndarray) -> None:
        acc = rows.take(at[0], 0, payloads[block], "clip")
        for member in at[1:]:
            acc ^= rows.take(member, 0, scratch[0], "clip")

    _each_block(plan, store, demands, xor_members, buffers=1)
    return Packets(ids=np.arange(plan.num_cliques, dtype=np.int32), payloads=payloads)


def _in_order(ids: np.ndarray, num: int) -> bool:
    """Whether ids, whose entries lie in [0, num), is arange(num): num such
    entries in strictly increasing order can only be 0, 1, ..., num-1.
    One compare of neighbours, a (C,) bool array and no (C,) index."""
    return len(ids) == num and bool(np.greater(ids[1:], ids[:-1]).all())


def decode(plan: DeliveryPlan, store: FileStore, demands, packets: Packets) -> list[bool]:
    """Decode every user at once; entry u is True when user u recovers its
    demanded file exactly.

    The plan must pass `delivery_violation`.  Then each clique's residual,
    its packet XOR all d members' subfiles, is what every member's
    recovered subfile differs by, so a user is exact when all its cliques
    leave a zero residual.  Each block's residual is built in its worker's
    buffer, reused across blocks, so no (C, L) residual is kept; the
    workers of _each_block mark the members of failing cliques inexact
    themselves, every write storing False, so they cannot conflict.
    When the ids are
    0, 1, ..., C-1, as encode sends them, the block's packets are its rows
    of the batch, XOR-ed into its member 0 subfiles.  Any other order takes
    them by clique id, the last packet naming a clique winning, through a
    (C,) table of each clique's packet.
    Raises DecodeError when the packet ids are not a flat sequence of
    integers, one per payload, an id names no clique, a clique has no
    packet, or a payload is not bytes of the subfile length.
    """
    demands = _demand_vector(store.num_files, demands)
    num, length = plan.num_cliques, store.subfile_len
    ids = np.asarray(packets.ids)
    if ids.dtype.kind not in "iu":
        raise DecodeError(f"packet clique ids are {ids.dtype}, not integers")
    if ids.ndim != 1:
        raise DecodeError(f"packet clique ids have shape {ids.shape}, not one id per packet")
    if ids.size and (ids.min() < 0 or ids.max() >= num):
        bad = (ids < 0) | (ids >= num)
        raise DecodeError(f"packet clique id {int(ids[bad][0])} is outside [0, {num})")
    if packets.payloads.dtype != np.uint8:
        raise DecodeError(f"packet payloads are {packets.payloads.dtype}, not bytes")
    if packets.payloads.shape[1:] != (length,):
        raise DecodeError(f"packet payloads have shape {packets.payloads.shape[1:]}, "
                          f"subfiles are {length} bytes")
    if len(packets.payloads) != len(ids):
        raise DecodeError(f"{len(packets.payloads)} packet payloads for {len(ids)} clique ids")
    packet_of = None
    if not _in_order(ids, num):
        packet_of = np.full(num, -1, dtype=np.int64)
        packet_of[ids] = np.arange(len(ids), dtype=np.int64)
        if num and packet_of.min() < 0:
            lost = np.flatnonzero(packet_of < 0)
            raise DecodeError(f"no packet for clique {lost[:5].tolist()}")
    rows = _store_rows(store)
    exact = np.ones(len(demands), dtype=bool)
    payloads, users = packets.payloads, plan.users

    def check_residuals(block: slice, at: np.ndarray, scratch: np.ndarray) -> None:
        residual, other = scratch
        if packet_of is None:
            rows.take(at[0], 0, residual, "clip")
            residual ^= payloads[block]
            at = at[1:]
        else:
            payloads.take(packet_of[block], 0, residual, "clip")
        for member in at:
            residual ^= rows.take(member, 0, other, "clip")
        if residual.any():
            exact[users[block][residual.any(axis=1)]] = False

    _each_block(plan, store, demands, check_residuals, buffers=2)
    return exact.tolist()


# ----------------------------------------------------------------------
# Scheme instances
# ----------------------------------------------------------------------

@dataclass
class SchemeInstance:
    """A fully realized scheme: the construction, whose closed forms are
    its parameters, the universe it was built from, placement and
    delivery plan."""

    params: ConstructionParams
    universe: Universe
    placement: PlacementMap
    delivery: DeliveryPlan


def build_scheme(cp: ConstructionParams,
                 max_vertices: int | None = DEFAULT_VERTEX_CAP) -> SchemeInstance:
    """Construct the full scheme for the parameters."""
    universe = build_line_graph(build_universe(cp, max_vertices=max_vertices))
    report = verify_line_graph(universe)
    if not report.ok:
        raise InvariantError(f"verify_line_graph: construction failed validation: "
                             f"{report.violations}")
    placement = build_placement(universe)
    instance = SchemeInstance(cp, universe, placement, enumerate_transmission_cliques(universe))
    violation = delivery_violation(instance.delivery, placement)
    if violation is not None:
        raise InvariantError(f"build_scheme: {violation}")
    return instance


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
    failures: int
    per_user_failures: list[int]
    round0: Packets | None = None  # kept on request; see run_trials

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _check_round(instance: SchemeInstance, demands) -> None:
    if len(demands) != instance.params.users:
        raise ValueError(
            f"demand vector has {len(demands)} entries for {instance.params.users} users"
        )


def run_round(instance: SchemeInstance, store: FileStore, demands) -> Packets:
    _check_round(instance, demands)
    return encode(instance.delivery, store, demands)


def decode_round(instance: SchemeInstance, store: FileStore, demands,
                 packets: Packets) -> list[bool]:
    """Decode every user; entry u is True when user u recovers its file exactly."""
    _check_round(instance, demands)
    return decode(instance.delivery, store, demands, packets)


def run_trials(instance: SchemeInstance, trials: int, seed: int,
               num_files: int | None = None,
               subfile_len: int = DEFAULT_SUBFILE_LEN,
               extra_demands: list[list[int]] | None = None,
               keep_round0: bool = False) -> SimulationReport:
    """Seeded random demand rounds (plus any explicit extra rounds).

    The files are those of FileStore.random(N, F, subfile_len, seed), held
    in a cache of min(N, K) slots, since a round demands at most K distinct
    files.  A round draws only the demanded files the cache lacks
    (FileStore.draw), byte for byte the same, into empty slots first and
    then into slots of files it does not demand, and its demands are
    renumbered into slots; no N*F*L store is ever held.  Each demand
    vector is drawn from the seed's stream as its round starts.

    With keep_round0 the report keeps the packets of round 0, the first
    demand vector of the seed's stream, as `simulate --trace` writes
    them; with no random rounds that round is encoded for this alone.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if subfile_len < 1:  # empty subfiles would make every decode vacuous
        raise ValueError(f"subfile_len must be >= 1, got {subfile_len}")
    k = instance.params.users
    n = num_files if num_files is not None else k
    if n < 1:
        raise ValueError(f"num_files must be >= 1, got {n}")
    f = instance.params.subpacketization
    cache = FileStore(np.empty((min(n, k), f, subfile_len), dtype=np.uint8))
    slot_of: dict[int, int] = {}  # file -> slot, oldest first

    def slots_for(demands) -> list[int]:
        """The round's demands as cache slots, after drawing what is missing."""
        _check_round(instance, demands)
        demands = _demand_vector(n, demands).tolist()
        wanted = set(demands)
        missing = list(wanted - slot_of.keys())
        if missing:
            slots = list(range(len(slot_of), cache.num_files)[:len(missing)])
            stale = [x for x in slot_of if x not in wanted][:len(missing) - len(slots)]
            slots += [slot_of.pop(x) for x in stale]
            cache.draw(slots, missing, seed)
            slot_of.update(zip(missing, slots))
        return [slot_of[x] for x in demands]

    stream = demand_stream(seed, k, n)
    round0 = None
    if keep_round0 and not trials:
        round0 = run_round(instance, cache, slots_for(next(stream)))
    per_user = [0] * k
    failures = 0
    packet_count = instance.delivery.num_cliques
    for demands in itertools.chain(itertools.islice(stream, trials), extra_demands or ()):
        demands = slots_for(demands)
        packets = run_round(instance, cache, demands)
        if len(packets) != packet_count:
            raise InvariantError(f"run_trials: {len(packets)} packets, expected {packet_count}")
        if keep_round0 and round0 is None:
            round0 = packets
        for user, ok in enumerate(decode_round(instance, cache, demands, packets)):
            if not ok:
                failures += 1
                per_user[user] += 1
    return SimulationReport(
        trials=trials + len(extra_demands or ()),
        users=k,
        packet_count=packet_count,
        failures=failures,
        per_user_failures=per_user,
        round0=round0,
    )


# ----------------------------------------------------------------------
# Serialization: scheme documents and packet traces
# ----------------------------------------------------------------------

def _header(instance: SchemeInstance) -> dict:
    """Every document field but the two integer arrays, subfiles and delivery."""
    cp = instance.params
    f = cp.field
    return {
        "format": FORMAT_VERSION,
        "construction": {"k": cp.k, "m": cp.m, "t": cp.t, "q": cp.q},
        "field": {"p": f.p, "n": f.n, "modulus": list(f.modulus)},
        "params": {
            "users": cp.users,
            "subpacketization": cp.subpacketization,
            "missing_per_user": cp.missing_per_user,
            "missing_per_subfile": cp.missing_per_subfile,
            "group_size": cp.group_size,
            "cached_fraction": [cp.cached_fraction.numerator, cp.cached_fraction.denominator],
            "rate": [cp.rate.numerator, cp.rate.denominator],
        },
        "root": [list(row) for row in instance.universe.root],
        "users": [[list(row) for row in mat] for mat in instance.universe.user_matrices],
        "placement": [
            instance.placement.row_base64(u) for u in range(cp.users)
        ],
    }


def _json_int_blocks(*columns: np.ndarray) -> Iterator[bytes]:
    """json.dumps(a.tolist(), separators=(",", ":")) for a non-negative
    integer array `a` of rank >= 1, as ASCII pieces, without building the
    lists.  `a` is the one array given, or np.stack(columns, axis=-1) for
    several columns of one shape, rendered without that stack.

    Every entry is laid out in a slot: the JSON punctuation in front of it
    and its digits, right-aligned in a field as wide as the largest entry
    of its column.  A row's first slot holds the end of the previous row
    too, so a block of rows is one run of slots, and each place in front
    of an entry's leading digit is written as NUL, which no JSON text
    holds: dropping the NULs compresses the block.  When every slot fits
    in 8 bytes and the array holds more entries than its largest value,
    a slot is one uint64 word, the OR of its punctuation and the value's
    digits taken from a table; else the digits are written one decimal
    place at a time.
    """
    a = columns[0]
    for c in columns:
        if c.ndim < 1 or c.dtype.kind not in "iu":
            raise InvariantError(f"_json_ints: renders integer arrays of rank >= 1, "
                                 f"got {c.dtype} of shape {c.shape}")
        if c.shape != a.shape:
            raise InvariantError(f"_json_ints: columns of shapes {a.shape} and {c.shape}")
        if c.size and c.min() < 0:
            raise InvariantError(f"_json_ints: entries are non-negative, found {c.min()}")
    rows = len(a)
    inner = a.shape[1:] + ((len(columns),) if len(columns) > 1 else ())
    entries = math.prod(inner)
    if rows == 0:
        yield b"[]"
        return
    one_row = json.dumps(np.zeros(inner, dtype=np.int64).tolist(), separators=(",", ":"))
    if entries == 0:
        yield f"[{','.join([one_row] * rows)}]".encode()
        return
    pieces = one_row.encode().split(b"0")
    opening, closing = pieces[0], pieces[-1]
    prefixes = [closing + b"," + opening] + pieces[1:-1]
    # Entry e of a row is an entry of column e % len(columns).
    tops = [int(c.max()) for c in columns]
    widths = [len(str(tops[e % len(columns)])) for e in range(entries)]
    if max(tops) < rows * entries and all(len(p) + w <= 8 for p, w in zip(prefixes, widths)):
        blocks = _table_rows(columns, prefixes, max(tops))
    else:
        blocks = _digit_rows(columns, prefixes, max(tops))
    yield b"["
    # The first row's first slot starts with the end of a row before it.
    yield next(blocks)[len(closing) + 1:]
    yield from blocks
    yield closing + b"]"


def _digit_words(top: int) -> np.ndarray:
    """Entry v is the ASCII digits of v, right-aligned in a little-endian
    uint64 with NULs in front, for 0 <= v <= top < 10^8: the digits of
    v // 10 moved one byte down, then the ones digit in the top byte."""
    ones = (np.arange(10, dtype="<u8") + ord("0")) << np.uint64(56)
    if top < 10:
        return ones[:top + 1]
    head = _digit_words(top // 10) >> np.uint64(8)
    head[0] = 0  # no leading zero
    return (head[:, None] | ones).reshape(-1)[:top + 1]


def _table_rows(columns, prefixes, top) -> Iterator[bytes]:
    """The rows of _json_int_blocks block by block, one 8-byte slot per
    entry: the prefix in the low bytes, the digits from the table in the
    high bytes.  One slot buffer serves every block.  Each column of a
    block is gathered from the table, as its transpose, into one reused
    contiguous buffer (np.take into the strided slots would go through a
    temporary), then OR-ed with its prefixes into its slots [..., i].
    The transpose makes each member column of a plan stored column by
    column one contiguous row of the index, which np.take converts to
    intp without a strided copy.  The gathers clip nothing: every entry
    lies in 0..top."""
    table = _digit_words(top)
    inner = columns[0].shape[1:]
    template = np.array([int.from_bytes(p, "little") for p in prefixes],
                        dtype="<u8").reshape(*inner, len(columns))
    rows, size = len(columns[0]), linegraph.BLOCK_ROWS
    shape = (min(rows, size), *inner)
    slot_buffer = np.empty((*shape, len(columns)), dtype="<u8")
    gather_buffer = np.empty(math.prod(shape), dtype="<u8")
    for lo in range(0, rows, size):
        block = slot_buffer[:min(size, rows - lo)]
        gathered = gather_buffer[:block.size // len(columns)].reshape(block.shape[-2::-1])
        for i, c in enumerate(columns):
            np.take(table, c[lo:lo + size].T, out=gathered, mode="clip")
            np.bitwise_or(gathered, template[..., i].T[..., None], out=block[..., i].T)
        yield block.tobytes().translate(None, b"\0")


def _digit_rows(columns, prefixes, top) -> Iterator[bytes]:
    """The rows of _json_int_blocks block by block, written one decimal
    place at a time into a fixed-width template of each row."""
    width = len(str(top))
    template = np.frombuffer(b"".join(p + b"\0" * width for p in prefixes), dtype=np.uint8)
    # ones_at[e] is the byte of entry e's last digit; its tens digit is one before.
    ones_at = np.cumsum([len(p) + width for p in prefixes]) - 1
    rows, size = len(columns[0]), linegraph.BLOCK_ROWS
    dtype = np.uint32 if top < 2 ** 32 else np.uint64
    for lo in range(0, rows, size):
        block = [c[lo:lo + size] for c in columns]
        v = block[0] if len(block) == 1 else np.stack(block, axis=-1)
        v = v.reshape(len(v), -1).astype(dtype)
        text = np.repeat(template[None], len(v), axis=0)
        for j in range(width):
            tens = v // 10
            digit = (v - tens * 10).astype(np.uint8)
            # A digit is written once v is nonzero; a lone 0 is still "0".
            text[:, ones_at - j] = digit + (v != 0) * np.uint8(48) if j else digit + 48
            v = tens
        yield text.tobytes().translate(None, b"\0")


def _json_ints(a: np.ndarray) -> str:
    """json.dumps(a.tolist(), separators=(",", ":")) for a non-negative
    integer array of rank >= 1; see _json_int_blocks."""
    return "".join(block.decode("ascii") for block in _json_int_blocks(a))


_JSON_SPACE = b" \t\n\r"
_APART = bytes.maketrans(b"[],", b"   ")  # for np.fromstring: brackets and commas to spaces
_SPACED_SIGN = re.compile(rb"-[ \t\n\r]")


def _parse_ints(text: bytes, inner: tuple[int, ...]) -> np.ndarray | None:
    """The int64 array with rows of shape `inner` that _json_ints renders
    as `text`, once JSON whitespace between tokens is removed; None if
    `text` is anything else.  Negative entries are read too, written as
    "-" right before the digits of the magnitude, as json.dumps does.

    np.fromstring reads the entries with "[", "]" and "," turned into
    spaces, and the count of "[" gives the rows.  The text is accepted
    only if, without its whitespace, it is byte for byte the rendering of
    the array read: a float, an exponent, a literal, a string, a leading
    zero or a ragged row renders differently, and whitespace inside a
    number reads as one entry too many.
    """
    spaced = text.translate(_APART)
    if not spaced or spaced.isspace():
        values = np.empty(0, dtype=np.int64)  # np.fromstring reads "  " as [0]
    else:
        try:
            with warnings.catch_warnings():
                # numpy < 2 warns and stops at text it cannot read; later
                # versions raise ValueError.
                warnings.simplefilter("ignore", DeprecationWarning)
                values = np.fromstring(spaced, dtype=np.int64, sep=" ")
        except ValueError:
            return None
    if inner:
        per_row = sum(math.prod(inner[:i]) for i in range(len(inner)))  # "[" per row
        rows, extra = divmod(text.count(b"[") - 1, per_row)
    else:
        rows, extra = values.size, 0
    if extra or rows < 0 or values.size != rows * math.prod(inner):
        return None
    a = values.reshape((rows,) + inner)
    canonical = text
    if any(space in text for space in _JSON_SPACE):  # memchr scans, faster than translate
        canonical = text.translate(None, _JSON_SPACE)
    magnitude = a
    negative = np.count_nonzero(a < 0)
    if negative:
        # One "-" per negative entry, right before its digits; so no "-0".
        if canonical.count(b"-") != negative or _SPACED_SIGN.search(text):
            return None
        canonical = canonical.replace(b"-", b"")
        magnitude = np.abs(a).astype(np.uint64)  # |-2^63| wraps to 2^63 in uint64
    # One column per position of a last axis that has several, so that each
    # gets its own width and the digit table applies where it fits.
    columns = (magnitude,)
    if a.ndim > 1 and a.shape[-1] > 1:
        columns = tuple(np.moveaxis(magnitude, -1, 0))
    at = 0
    for block in _json_int_blocks(*columns):
        if not canonical.startswith(block, at):
            return None
        at += len(block)
    return a if at == len(canonical) else None


def document_chunks(instance: SchemeInstance) -> Iterator[bytes]:
    """The canonical document of the scheme as ASCII byte chunks: json.dumps
    of it with sorted keys and no spaces.  Subfiles and delivery are
    rendered block by block, delivery straight from the plan's users and
    subfiles; the other fields come as one chunk between them."""
    plan = instance.delivery
    header = _header(instance)
    arrays = {"subfiles": (instance.universe.subfile_array,),
              "delivery": (plan.users, plan.subfiles)}
    pending = b""
    for i, key in enumerate(sorted(header.keys() | arrays.keys())):
        pending += (b"," if i else b"{") + json.dumps(key).encode() + b":"
        if key in arrays:
            yield pending
            yield from _json_int_blocks(*arrays[key])
            pending = b""
        else:
            pending += json.dumps(header[key], sort_keys=True, separators=(",", ":")).encode()
    yield pending + b"}"


def serialize(instance: SchemeInstance) -> str:
    """Deterministic JSON rendering of the scheme (format "pgcache/1"):
    json.dumps of the document with sorted keys and no spaces."""
    return b"".join(document_chunks(instance)).decode("ascii")


# The two integer arrays that deserialize reads with numpy (_parse_ints):
# their values are cut out of the text before json.loads parses the rest.
_ARRAY_FIELDS = ("delivery", "subfiles")
_ARRAY_START = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*\[")
_ARRAY_END = re.compile(rb'[ \t\n\r]*(,[ \t\n\r]*"|})')  # the next key, or the end


def _cut_arrays(data: bytes) -> tuple[bytes, dict[str, bytes], list[tuple[int, int, str]]]:
    """The document with the array value of each key of _ARRAY_FIELDS cut
    out and replaced by NaN; those values, by key in text order; and the
    cuts as (start, stop, key), in text order.

    A value runs from its "[" to the last "]" before the next '"' or "}",
    neither of which an integer array holds, and must be followed by the
    next key or the end of the object; else json.loads parses it as it
    stands, and deserialize refuses it.  NaN is no JSON value, so
    json.loads hands each one to its parse_constant hook, which lets
    deserialize tell that the stand-ins, and nothing else, sit at those
    keys.
    """
    spans = []
    for key in _ARRAY_FIELDS:
        name = json.dumps(key).encode()
        at = data.find(name)
        match = _ARRAY_START.match(data, at + len(name)) if at >= 0 else None
        if match:
            start = match.end() - 1
            ends = [i for i in (data.find(b'"', start), data.find(b"}", start)) if i >= 0]
            stop = data.rfind(b"]", start, min(ends, default=len(data))) + 1
            if stop and _ARRAY_END.match(data, stop):
                spans.append((start, stop, key))
    spans.sort()
    pieces, arrays, end = [], {}, 0
    for start, stop, key in spans:
        pieces.append(data[end:start])
        arrays[key] = data[start:stop]
        end = stop
    pieces.append(data[end:])
    return b"NaN".join(pieces), arrays, spans


def _offset_in_document(at: int, cuts: list[tuple[int, int, str]]) -> int:
    """The offset in the document of offset `at` of the text with the cuts
    replaced by NaN."""
    for start, stop, _ in cuts:
        if at <= start:
            break
        at += stop - start - len("NaN")
    return at


def deserialize(text: str | bytes) -> SchemeInstance:
    """Load a scheme document given as str, bytes or another bytes-like
    object such as an mmap; raises SchemaError on any malformation.

    The document must be ASCII.  A canonical document, the one serialize
    writes, is loaded by rebuilding the construction it starts with, so
    build_scheme checks the plan, and comparing it byte for byte with
    that scheme's document_chunks.  Any other text takes the general
    path of _parse_document, which gives every refusal its message.  A
    str is encoded to bytes only for that path: a canonical one is
    compared as text, so loading it copies no whole document.
    """
    if isinstance(text, str) and not text.isascii():
        raise SchemaError("document is not ASCII")
    built = _canonical_build(text)
    if built is not None and _is_document_of(built, text):
        return built
    if isinstance(text, str):
        text = text.encode("ascii")
    return _parse_document(bytes(text), built)


# The start of every document that serialize writes: sorted keys put the
# construction first, its values written as canonical JSON integers.
_CANONICAL_START = re.compile(rb'\{"construction":\{"k":%s,"m":%s,"q":%s,"t":%s\},'
                              % ((rb"(0|[1-9][0-9]{0,8})",) * 4))


def _canonical_build(data) -> SchemeInstance | None:
    """The scheme of the construction `data` starts with, if it starts
    canonically and is long enough to be that construction's document;
    else None.

    That document holds K*D delivery entries of at least 5 bytes each and
    K user matrices of t*k entries of at least 2 bytes each, so a
    construction that needs more than `data` holds is not rebuilt.  Since
    K > q and K >= 2^(k-t), bounds on q and k - t come first and keep the
    closed forms cheap.
    """
    start = data[:128]
    match = _CANONICAL_START.match(start.encode("ascii") if isinstance(start, str)
                                   else bytes(start))
    if match is None:
        return None
    k, m, q, t = map(int, match.groups())
    size = len(data)
    if q >= size or not 0 <= k - t < size.bit_length():
        return None
    try:
        cp = ConstructionParams(k=k, m=m, t=t, q=q)
    except ValueError:
        return None
    if 2 * cp.users * t * k > size or 5 * cp.vertex_count > size:
        return None
    return build_scheme(cp, max_vertices=None)


def _is_document_of(instance: SchemeInstance, data) -> bool:
    """Whether `data` is byte for byte the canonical document of the
    scheme.  The chunks are compared in order, each with bytes.startswith
    where `data` is bytes, or decoded and with str.startswith where it is
    an ASCII str, so a mismatch stops the rendering."""
    if isinstance(data, bytes):
        same = data.startswith
    elif isinstance(data, str):
        def same(chunk: bytes, at: int) -> bool:
            return data.startswith(chunk.decode("ascii"), at)
    else:
        def same(chunk: bytes, at: int) -> bool:
            return data[at:at + len(chunk)] == chunk
    at = 0
    for chunk in document_chunks(instance):
        if not same(chunk, at):
            return False
        at += len(chunk)
    return at == len(data)


def _parse_document(text: bytes, built: SchemeInstance | None = None) -> SchemeInstance:
    """Parse any scheme document; raises SchemaError on any malformation.

    The document must be ASCII.  Its subfiles and delivery are read
    straight from the text (_parse_ints) and must be written as JSON
    integers; json.loads parses the rest.  The scheme is rebuilt from
    the stored construction, or its universe and placement are taken
    from `built` when that is a scheme of the same construction.  Every
    other stored field must equal the rebuilt one, and the stored
    delivery plan must pass `delivery_violation`; only then, with every
    entry in range, is it narrowed to int32, stored column by column as a
    built plan is.
    """
    if not text.isascii():
        raise SchemaError("document is not ASCII")
    header, arrays, cuts = _cut_arrays(text)
    stand_ins = []

    def stand_in(constant: str) -> object:
        stand_ins.append(object())
        return stand_ins[-1]

    nul = header.find(b"\x00")
    if nul >= 0:  # no JSON text holds one, and json.loads would guess UTF-16/32
        raise SchemaError(f"not valid JSON: NUL at char {_offset_in_document(nul, cuts)}")
    try:
        doc = json.loads(header, parse_constant=stand_in)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc.msg} at char "
                          f"{_offset_in_document(exc.pos, cuts)}") from exc
    except RecursionError as exc:
        raise SchemaError("document is nested too deeply to parse") from exc
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
    if len(stand_ins) != len(arrays):
        raise SchemaError("not valid JSON: NaN and Infinity are no JSON values")
    cut = dict(zip(arrays, stand_ins))
    for key in _ARRAY_FIELDS:
        if key not in cut or doc[key] is not cut[key]:
            raise SchemaError(f"stored {key} is not an array of JSON integers")
    try:
        cp = _stored_construction(doc)
        subfiles = _stored_ints(arrays.pop("subfiles"), "subfiles", (cp.m + 1,))
        # Row counts first, so that a document cannot ask for a rebuild
        # far larger than itself.
        for key, stored, rows in (("placement", len(doc["placement"]), cp.users),
                                  ("subfiles", len(subfiles), cp.subpacketization)):
            if stored != rows:
                raise SchemaError(f"stored {key} has {stored} rows, the "
                                  f"construction {doc['construction']} has {rows}")
        pairs = _stored_ints(arrays.pop("delivery"), "delivery", (cp.m + 2, 2))
        delivery = DeliveryPlan(users=pairs[:, :, 0], subfiles=pairs[:, :, 1])
        if built is not None and built.params == cp:
            universe, placement = built.universe, built.placement
        else:
            universe = build_universe(cp, max_vertices=None)
            placement = build_placement(build_line_graph(universe))
        instance = SchemeInstance(cp, universe, placement, delivery)
        same_subfiles = np.array_equal(subfiles, universe.subfile_array)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError,
            ZeroDivisionError) as exc:
        raise SchemaError(f"malformed scheme document: {exc}") from exc
    for key, value in _header(instance).items():
        if doc[key] != value:
            raise SchemaError(f"stored {key} does not match the construction "
                              f"{doc['construction']}")
    if not same_subfiles:
        raise SchemaError(f"stored subfiles does not match the construction "
                          f"{doc['construction']}")
    violation = delivery_violation(delivery, instance.placement)
    if violation is not None:
        raise SchemaError(violation)
    instance.delivery = DeliveryPlan(users=delivery.users.astype(np.int32, order="F"),
                                     subfiles=delivery.subfiles.astype(np.int32, order="F"))
    return instance


def _stored_ints(value: bytes, key: str, inner: tuple[int, ...]) -> np.ndarray:
    a = _parse_ints(value, inner)
    if a is None:
        raise SchemaError(f"stored {key} is not an array of rows of shape {inner} "
                          f"written as JSON integers")
    return a


def _stored_construction(doc: dict) -> ConstructionParams:
    """The stored construction, once its values are known to be integers
    that the document's own row counts bound.

    A valid document has t - 1 root rows and K placement rows, with
    K = [k-t+1 choose 1]_q > q and K >= 2^(k-t).  Checking these bounds
    first keeps the closed forms and the rebuild as cheap as the document.
    """
    stored = doc["construction"]
    if not isinstance(stored, dict) or any(type(v) is not int for v in stored.values()):
        raise SchemaError(f"stored construction {stored} must map k, m, t, q to integers")
    users, root = len(doc["placement"]), len(doc["root"])
    k, t, q = stored["k"], stored["t"], stored["q"]
    if q >= users or k - t >= users.bit_length():
        raise SchemaError(f"stored placement has {users} rows, too few for the "
                          f"construction {stored}")
    if t - 1 > root:
        raise SchemaError(f"stored root has {root} rows, too few for the "
                          f"construction {stored}")
    return ConstructionParams(**stored)


TRACE_MAGIC = b"PGCT"


def _trace_record(length: int) -> np.dtype:
    """One packet of a trace: u32 clique id, u32 payload length, payload."""
    return np.dtype([("id", "<u4"), ("len", "<u4"), ("payload", "u1", (length,))])


def packet_trace_bytes(packets: Packets) -> bytes:
    """Binary packet dump: magic, u32 count, then (u32 id, u32 len, payload)."""
    count, length = packets.payloads.shape
    # The header and the records are filled in one buffer, copied once.
    trace = np.empty(8 + count * (8 + length), dtype=np.uint8)
    trace[:8] = np.frombuffer(TRACE_MAGIC + count.to_bytes(4, "little"), dtype=np.uint8)
    records = trace[8:].view(_trace_record(length))
    records["id"] = packets.ids
    records["len"] = length
    records["payload"] = packets.payloads
    return trace.tobytes()


def parse_packet_trace(blob: bytes) -> Packets:
    """Packets of a trace; every payload must have the same length."""
    if blob[:4] != TRACE_MAGIC:
        raise SchemaError("not a packet trace (bad magic)")
    count = int.from_bytes(blob[4:8], "little")
    length = int.from_bytes(blob[12:16], "little") if count else 0
    # Sized before the record type, which numpy refuses for a length
    # field near 2^32.
    if len(blob) < 8 or len(blob) != 8 + count * (8 + length):
        raise SchemaError(f"packet trace of {len(blob)} bytes does not hold {count} "
                          f"packets of {length} bytes: truncated, or unequal payload lengths")
    record = _trace_record(length)
    records = np.frombuffer(blob, dtype=record, count=count, offset=8)
    unequal = np.flatnonzero(records["len"] != length)
    if unequal.size:
        i = int(unequal[0])
        raise SchemaError(f"packet {i} has {records['len'][i]} payload bytes, packet 0 "
                          f"has {length}: payloads must have equal lengths")
    return Packets(ids=records["id"].astype(np.int64), payloads=records["payload"].copy())
