"""Caching line graphs on the points of the projective space PG(k-t, q).

The construction takes parameters (k, m, t, q) and fixes w, the span of
the first t-1 standard basis vectors of GF(q)^k.  A user is a t-dim
superspace of w; modulo w it is one direction, so the users are exactly
the points of PG(k-t, q), the 1-dim subspaces of GF(q)^n with n = k-t+1.
Everything else depends on the points alone:

  * subfiles:  independent (m+1)-sets of points (sets summing to an
               (m+t)-dim superspace of w, their "sum space");
  * vertices:  (user, subfile) pairs whose point lies outside the
               subfile's span, i.e. the user does not cache the subfile;
               the vertices sharing a user form a user clique, those
               sharing a subfile a subfile clique;
  * cliques:   independent (m+2)-sets of points.  Dropping any one point
               leaves a subfile, so each set gives the transmission
               clique {(u, set minus u)}; these partition the vertices
               and are the XOR delivery groups.

So (k, m, t, q) and (k-t+1, m, 1, q) give the same combinatorics, and t
only shows in the user matrices written into a scheme document, lifted
as rows e_0..e_{t-2} followed by (0^{t-1}, direction).

A point is a normalized vector of GF(q)^n (first nonzero coordinate 1),
held as one integer code in radix q with coordinate 0 most significant;
ascending codes give the user order.  Codes add digitwise mod p: by XOR
when p = 2, by one gather from a table of the sums of every code pair
when a code has at most 256 values, else one digit at a time.  The
table is built once per _Points, that is once per build_universe call.
Independent point sets are enumerated level by level in numpy.  Every
set carries a mask of the points outside its span and, below the
subfile level, the list of its span's vectors.  A point extends a set
when it lies outside the span and after the set's last point, and
np.nonzero over that candidate mask lists the next level already in
lexicographic order.  The subfile level's mask is the one read-only
(F, K) table of the universe: it is the line graph, whose vertices are
its set cells, and the placement.  Its row and column counts are taken
once per universe; build_line_graph checks them against the closed
forms and verify_line_graph reads them.
One more level gives the cliques.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import GF, factor_prime_power, field as make_field
from .subspaces import InvariantError, generating_set_counts, q_binomial

DEFAULT_VERTEX_CAP = 10 ** 7

# Rows of a plan-sized array in one block, wherever such an array is walked
# in blocks (a plan's cliques, mask rows packed into bit words, rows of a
# rendered document array), so that a block's work buffers stay in cache.
# Read at call time.
BLOCK_ROWS = 4096


class CapacityError(RuntimeError):
    """Predicted construction size exceeds the configured cap."""


class DegenerateConstructionError(ValueError):
    """m + t = k: every user caches every subfile, an empty line graph."""


def _require(ok, step: str, invariant: str) -> None:
    """Explicit invariant check that still runs under ``python -O``."""
    if not ok:
        raise InvariantError(f"{step}: {invariant}")


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionParams:
    """Construction knobs: ambient dim k, set size m+1, user dim t, field q.

    The scheme needs alpha = k - m - t >= 1: m + t > k is refused as a
    ValueError and m + t = k, where every user caches every subfile, as a
    DegenerateConstructionError, so later steps may take c > 0.
    """

    k: int
    m: int
    t: int
    q: int

    def __post_init__(self) -> None:
        factor_prime_power(self.q)  # raises for non prime powers
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.m + self.t > self.k:
            raise ValueError(
                f"need m + t <= k, got m={self.m}, t={self.t}, k={self.k}"
            )
        if self.m + self.t == self.k:
            raise DegenerateConstructionError(
                f"m={self.m}, t={self.t}, k={self.k} caches every subfile at every "
                f"user, an empty delivery problem: need m + t < k"
            )
        if self.m == 0:
            warnings.warn(
                "m = 0 is degenerate: delivery cliques have size 2",
                stacklevel=2,
            )

    @property
    def alpha(self) -> int:
        return self.k - self.m - self.t

    @property
    def field(self) -> GF:
        return make_field(self.q)

    # Closed forms used both for capacity estimates and as invariants.

    @property
    def num_users(self) -> int:
        return q_binomial(self.k - self.t + 1, 1, self.q)

    @property
    def subfile_clique_size(self) -> int:
        return self.q ** (self.m + 1) * q_binomial(self.alpha, 1, self.q)

    @property
    def user_clique_size(self) -> int:
        g = generating_set_counts(self.q, self.m, self.t).subspace_sets
        h = self.q ** (self.m + 1) * q_binomial(self.k - self.t, self.m + 1, self.q)
        return h * g

    @property
    def subpacketization(self) -> int:
        g = generating_set_counts(self.q, self.m, self.t).subspace_sets
        return q_binomial(self.k - self.t + 1, self.m + 1, self.q) * g

    @property
    def vertex_count(self) -> int:
        return self.num_users * self.user_clique_size


# ----------------------------------------------------------------------
# Points of PG(n-1, q) as radix-q codes
# ----------------------------------------------------------------------

def _digit_sums(a: np.ndarray, b: np.ndarray, p: int, digits: int) -> np.ndarray:
    """Digitwise sums mod p of two broadcastable arrays of base-p codes of
    `digits` digits, one digit at a time."""
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    weight = 1
    for _ in range(digits):
        out += (a // weight + b // weight) % p * weight
        weight *= p
    return out


class _Points:
    """The points of GF(q)^n and the vector arithmetic on their codes.

    codes[i] is the code of point i; multiples[i, c] is the code of c
    times point i (column 0 is the zero vector), and point_of maps every
    nonzero vector code to the index of its point.
    """

    def __init__(self, f: GF, n: int):
        self.f = f
        q = f.q
        self.codes = np.concatenate(
            [q ** j + np.arange(q ** j, dtype=np.int64) for j in range(n)])
        weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
        digits = self.codes[:, None] // weights % q                    # (K, n)
        scalars = np.arange(q, dtype=np.int64)[None, :, None]
        self.multiples = f.mul_array(scalars, digits[:, None, :]) @ weights  # (K, q)
        self.point_of = np.full(q ** n, -1, dtype=np.int64)
        self.point_of[self.multiples[:, 1:]] = np.arange(len(self.codes))[:, None]
        self._digits = n * f.n  # base-p digits of a code
        # For odd p with p^digits <= 256 a code is one group of digits, and
        # two codes add by one gather from the table of all code-pair sums,
        # p^(2 digits) <= 2^16 entries.
        p = f.p
        self._sums = None
        if p > 2 and p ** self._digits <= 256:
            group = np.arange(p ** self._digits, dtype=np.int64)
            self._sums = _digit_sums(group[:, None], group[None, :], p, self._digits).ravel()

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vector sums of two broadcastable arrays of codes.

        Field addition is carry-free addition of base-p digits, so a code
        sum is the digitwise sum mod p: an XOR when p = 2.  For odd p with
        p^digits <= 256, as for GF(3)^5, it is one gather from the table
        of the sums of every code pair; else the digits add one at a time.
        """
        p = self.f.p
        if p == 2:
            return a ^ b
        if self._sums is None:
            return _digit_sums(a, b, p, self._digits)
        return np.take(self._sums, a * p ** self._digits + b)


def _extensions(sets: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """The flat indexes row * K + point of the (row, point) pairs where the
    point extends sets[row] to a larger independent set: outside its span
    and after its last point.  They come in lexicographic order of the
    extended sets."""
    extends = np.arange(outside.shape[1]) > sets[:, -1:]
    extends &= outside
    return np.flatnonzero(extends)


# ----------------------------------------------------------------------
# Universe: points and subfile sets
# ----------------------------------------------------------------------

@dataclass
class Universe:
    """The points, subfile sets and caching line graph of one construction.

    points holds the K point codes in user order.  subfile_array holds
    the F subfiles as ascending rows of point indices, in lexicographic
    order.  outside_mask[x, u] is set when point u lies outside the span
    of subfile x: user u does not cache subfile x, and (u, x) is a vertex
    of the line graph.  The mask is read-only and is also the placement.
    """

    params: ConstructionParams
    points: np.ndarray         # (K,) int64 codes
    subfile_array: np.ndarray  # (F, m+1) int64
    outside_mask: np.ndarray   # (F, K) bool, read-only

    @cached_property
    def mask_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """The outside mask's row and column counts: the users of each
        subfile clique and the subfiles of each user clique."""
        mask = self.outside_mask
        return np.count_nonzero(mask, axis=1), np.count_nonzero(mask, axis=0)

    @property
    def num_users(self) -> int:
        return len(self.points)

    @property
    def subpacketization(self) -> int:
        return len(self.subfile_array)

    @property
    def vertex_count(self) -> int:
        return self.num_users * self.params.user_clique_size

    @cached_property
    def user_cliques(self) -> list[np.ndarray]:
        """Per user, the sorted subfile indices it does not cache."""
        subs = np.nonzero(self.outside_mask.T)[1]
        return list(subs.reshape(self.num_users, self.params.user_clique_size))

    @cached_property
    def subfile_cliques(self) -> list[tuple[int, ...]]:
        """Per subfile, the sorted user indices that do not cache it."""
        users = np.nonzero(self.outside_mask)[1]
        return list(map(tuple, users.reshape(-1, self.params.subfile_clique_size).tolist()))

    @cached_property
    def root(self) -> tuple[tuple[int, ...], ...]:
        """The rows e_0..e_{t-2} of GF(q)^k, spanning w."""
        k = self.params.k
        return tuple(tuple(int(j == i) for j in range(k)) for i in range(self.params.t - 1))

    @cached_property
    def user_matrices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each user's RREF matrix: the root rows, then (0^{t-1}, direction)."""
        cp = self.params
        n = cp.k - cp.t + 1
        digits = self.points[:, None] // cp.q ** np.arange(n - 1, -1, -1) % cp.q
        pad = (0,) * (cp.t - 1)
        return tuple(self.root + (pad + tuple(row),) for row in digits.tolist())


def build_universe(params: ConstructionParams, max_vertices: int | None = DEFAULT_VERTEX_CAP) -> Universe:
    """Enumerate the points and the subfile sets for the parameters.

    Refuses up front when the closed-form vertex count K*D exceeds
    max_vertices, reporting the predicted sizes.  With m + t < k, K*D is
    at least q^n, the size of the point tables, so the cap bounds them too.
    """
    cp = params
    predicted_f = cp.subpacketization
    predicted_vertices = cp.vertex_count
    if max_vertices is not None and predicted_vertices > max_vertices:
        raise CapacityError(
            f"predicted {predicted_vertices} vertices "
            f"(K={cp.num_users}, D={cp.user_clique_size}, F={predicted_f}) "
            f"exceed cap {max_vertices}"
        )
    n = cp.k - cp.t + 1
    pts = _Points(cp.field, n)
    k_users = len(pts.codes)
    _require(k_users == cp.num_users, "build_universe",
             f"{k_users} points, closed form K = {cp.num_users}")

    # Level 1: single points, each spanning itself and its multiples.
    sets = np.arange(k_users, dtype=np.int64)[:, None]
    outside = ~np.eye(k_users, dtype=bool)
    vectors = pts.multiples
    for level in range(1, cp.m + 1):
        rows, new = np.divmod(_extensions(sets, outside), k_users)
        base = vectors[rows]                 # span vectors of the set being extended
        sets = np.column_stack((sets[rows], new))
        outside = outside[rows]
        # The points gained are those of v + new over the old span's vectors v.
        gained = pts.point_of[pts.add(base, pts.multiples[new, 1:2])]
        outside[np.arange(len(rows))[:, None], gained] = False
        if level < cp.m:
            vectors = pts.add(base[:, :, None], pts.multiples[new][:, None, :]
                              ).reshape(len(rows), -1)

    _require(len(sets) == predicted_f, "build_universe",
             f"{len(sets)} independent (m+1)-sets, closed form F = {predicted_f}")
    outside.flags.writeable = False
    return Universe(params=cp, points=pts.codes, subfile_array=sets, outside_mask=outside)


# ----------------------------------------------------------------------
# The line graph
# ----------------------------------------------------------------------

def build_line_graph(universe: Universe) -> Universe:
    """Check that the universe's outside mask is the caching line graph of
    the closed forms, with c users per subfile clique and D subfiles per
    user clique, and return the universe: its mask is the vertex set."""
    cp = universe.params
    clique_size = cp.subfile_clique_size
    per_subfile, per_user = universe.mask_counts
    _require((per_subfile == clique_size).all(), "build_line_graph",
             f"every subfile clique has c = {clique_size} users")
    expected_d = cp.user_clique_size
    _require((per_user == expected_d).all(), "build_line_graph",
             f"every user clique has D = {expected_d} subfiles")
    return universe


# ----------------------------------------------------------------------
# Transmission cliques
# ----------------------------------------------------------------------

@dataclass
class DeliveryPlan:
    """Transmission cliques, one XOR packet each.

    Row i of `users`/`subfiles` is clique i: d = m+2 (user, subfile)
    vertices, ordered by user index.  Built plans are int32, half the
    bytes of int64: K and F fit in int32 far past any plan that fits in
    memory.  A plan of another integer dtype, such as one parsed from a
    document, is kept as it is; every pass over a plan walks it in
    blocks of cliques (`blocks`).
    """

    users: np.ndarray     # (num_cliques, d), int32 when built
    subfiles: np.ndarray  # (num_cliques, d), int32 when built

    @property
    def num_cliques(self) -> int:
        return self.users.shape[0]

    @property
    def group_size(self) -> int:
        return self.users.shape[1]

    def clique(self, i: int) -> list[tuple[int, int]]:
        return list(zip(self.users[i].tolist(), self.subfiles[i].tolist()))

    def blocks(self) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """The plan in consecutive blocks of at most BLOCK_ROWS cliques:
        each block's slice and its rows of users and subfiles, as views."""
        for lo in range(0, self.num_cliques, BLOCK_ROWS):
            block = slice(lo, lo + BLOCK_ROWS)
            yield block, self.users[block], self.subfiles[block]


def enumerate_transmission_cliques(universe: Universe) -> DeliveryPlan:
    """All independent (m+2)-sets of points, as cliques.

    Each set Y extends a subfile x by one point outside its span and after
    its last point, and yields the clique {(u, Y minus u)}; the int32 plan
    is filled from these extensions block by block.  Y minus its last
    point, the new one, is x itself.  Every other member's subfile is read
    from subfile_of, a table indexed by the colex rank sum_i C(x_i, i+1) of
    an ascending (m+1)-set x (the combinatorial number system), with -1
    where the set is not a subfile.  The rank of Y minus point j of x is
    partial[x, j], the rank of x without point j, computed once per
    subfile, plus C(new, m+1) for the new point, which comes last.  That
    the cliques are disjoint vertices covering the line graph is a
    property of the plan, checked by `pgcache.scheme.delivery_violation`.
    """
    k, d = universe.num_users, universe.params.m + 2
    subfiles = universe.subfile_array
    # comb[i][x] = C(x, i): the rank term of point x in position i - 1.
    comb = [np.array([math.comb(x, i) for x in range(k)], dtype=np.int64) for i in range(d)]
    # Without point j, the points after it move down one position: the
    # rank without point 0, then point j - 1 moves back in and point j out.
    partial = np.empty((len(subfiles), d - 1), dtype=np.int64)
    partial[:, 0] = sum(comb[i][subfiles[:, i]] for i in range(1, d - 1))
    for j in range(1, d - 1):
        partial[:, j] = (partial[:, j - 1] + comb[j][subfiles[:, j - 1]]
                         - comb[j][subfiles[:, j]])
    subfile_of = np.full(math.comb(k, d - 1), -1, dtype=np.int32)
    subfile_of[partial[:, -1] + comb[d - 1][subfiles[:, -1]]] = np.arange(len(subfiles))

    cells = _extensions(subfiles, universe.outside_mask)
    plan = DeliveryPlan(users=np.empty((len(cells), d), dtype=np.int32),
                        subfiles=np.empty((len(cells), d), dtype=np.int32))
    for block, users, subs in plan.blocks():
        x, new = np.divmod(cells[block], k)
        users[:, :-1] = np.take(subfiles, x, axis=0)
        users[:, -1] = new
        rank = np.take(partial, x, axis=0)
        rank += np.take(comb[d - 1], new)[:, None]
        found = np.take(subfile_of, rank)
        _require(found.min(initial=0) >= 0, "enumerate_transmission_cliques",
                 "every clique minus one member is a subfile")
        subs[:, :-1] = found
        subs[:, -1] = x
    return plan


# ----------------------------------------------------------------------
# Validation (the four line-graph conditions)
# ----------------------------------------------------------------------

@dataclass
class LineGraphReport:
    """Outcome of the four structural conditions; violations are messages."""

    user_partition_ok: bool
    cross_degree_ok: bool
    subfile_clique_ok: bool
    subfile_count_ok: bool
    violations: list[str]

    @property
    def ok(self) -> bool:
        return (
            self.user_partition_ok
            and self.cross_degree_ok
            and self.subfile_clique_ok
            and self.subfile_count_ok
        )


def verify_line_graph(universe: Universe) -> LineGraphReport:
    """Check the caching-line-graph conditions on the outside mask.

    (i) user cliques partition the vertices with one common size; (ii) a
    vertex has at most one neighbour inside any other user clique; (iii) a
    vertex plus its neighbours outside its own user clique form a clique;
    (iv) the number of subfile cliques matches.  (i) and (iv) come from
    the mask's column and row counts (`Universe.mask_counts`, which
    build_line_graph has already taken).  A mask holds no (user, subfile)
    label twice, so (ii) and (iii) hold by construction.
    """
    per_subfile, per_user = universe.mask_counts
    per_user = per_user[per_user > 0]
    num_subfile_cliques = int(np.count_nonzero(per_subfile))
    num_users, num_subfiles = universe.num_users, universe.subpacketization
    violations: list[str] = []
    sizes = np.unique(per_user).tolist()
    if len(per_user) != num_users:
        violations.append(
            f"condition (i): {len(per_user)} user cliques, expected {num_users}"
        )
    if len(sizes) > 1:
        violations.append(f"condition (i): unequal user clique sizes {sizes}")
    subfile_count_ok = num_subfile_cliques == num_subfiles
    if not subfile_count_ok:
        violations.append(
            f"condition (iv): {num_subfile_cliques} subfile cliques, expected {num_subfiles}"
        )
    return LineGraphReport(
        user_partition_ok=len(per_user) == num_users and len(sizes) == 1,
        cross_degree_ok=True,
        subfile_clique_ok=True,
        subfile_count_ok=subfile_count_ok,
        violations=violations,
    )
