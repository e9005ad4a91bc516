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
ascending codes give the user order.  Independent point sets are
enumerated level by level in numpy.  Every set carries a mask of the
points in its span and, below the subfile level, the list of its span's
vectors.  A point extends a set when it lies outside the span and after
the set's last point, and np.nonzero over that candidate mask lists the
next level already in lexicographic order.  The subfile level's span
masks are the placement, and one more level gives the cliques.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import GF, factor_prime_power, field as make_field
from .subspaces import (
    SubspaceBasis,
    canonicalize,
    generating_set_counts,
    q_binomial,
    standard_prefix_subspace,
)

DEFAULT_VERTEX_CAP = 10 ** 7


class CapacityError(RuntimeError):
    """Predicted construction size exceeds the configured cap."""


class DegenerateConstructionError(ValueError):
    """Parameters produce an empty line graph (every subfile fully cached)."""


class InvariantError(AssertionError):
    """A construction step produced output that breaks one of its invariants."""


def _require(ok, step: str, invariant: str) -> None:
    """Explicit invariant check that still runs under ``python -O``."""
    if not ok:
        raise InvariantError(f"{step}: {invariant}")


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionParams:
    """Construction knobs: ambient dim k, set size m+1, user dim t, field q."""

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

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vector sums of two broadcastable arrays of codes.

        Field addition is carry-free addition of base-p digits, so a code
        sum is the digitwise sum mod p: an XOR when p = 2.
        """
        p = self.f.p
        if p == 2:
            return a ^ b
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        weight = 1
        for _ in range(self._digits):
            out += (a // weight + b // weight) % p * weight
            weight *= p
        return out


def _extensions(sets: np.ndarray, in_span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, point) pairs where the point extends sets[row] to a larger
    independent set: outside its span and after its last point.  The
    pairs come in lexicographic order of the extended sets."""
    after_last = np.arange(in_span.shape[1]) > sets[:, -1:]
    return np.nonzero(after_last & ~in_span)


# ----------------------------------------------------------------------
# Universe: points and subfile sets
# ----------------------------------------------------------------------

@dataclass
class Universe:
    """The points and subfile sets of one construction.

    points holds the K point codes in user order.  subfile_array holds
    the F subfiles as ascending rows of point indices, in lexicographic
    order, and span_mask[x, u] is set when point u lies in the span of
    subfile x.  The subspace views (user_spaces, sum_spaces, members,
    subfile_span) are derived on first use; members lists, per sum
    space, the users whose space lies inside it.
    """

    params: ConstructionParams
    points: np.ndarray        # (K,) int64 codes
    subfile_array: np.ndarray  # (F, m+1) int64
    span_mask: np.ndarray     # (F, K) bool

    @property
    def num_users(self) -> int:
        return len(self.points)

    @property
    def subpacketization(self) -> int:
        return len(self.subfile_array)

    @cached_property
    def subfile_sets(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.subfile_array.tolist()))

    @cached_property
    def root(self) -> SubspaceBasis:
        cp = self.params
        return standard_prefix_subspace(cp.field, cp.k, cp.t - 1)

    @cached_property
    def user_matrices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each user's RREF matrix: the root rows, then (0^{t-1}, direction)."""
        cp = self.params
        n = cp.k - cp.t + 1
        digits = self.points[:, None] // cp.q ** np.arange(n - 1, -1, -1) % cp.q
        pad = (0,) * (cp.t - 1)
        return tuple(self.root.rows + (pad + tuple(row),) for row in digits.tolist())

    @cached_property
    def user_spaces(self) -> list[SubspaceBasis]:
        f, k = self.params.field, self.params.k
        return [SubspaceBasis(f, k, rows) for rows in self.user_matrices]

    @cached_property
    def _spans(self) -> tuple[list[SubspaceBasis], list[tuple[int, ...]], list[int]]:
        """Sum spaces in canonical order, their members, and each subfile's
        sum space; subfiles share a sum space exactly when their span
        masks agree."""
        cp = self.params
        _, first, inverse = np.unique(np.packbits(self.span_mask, axis=1), axis=0,
                                      return_index=True, return_inverse=True)
        bases = [
            canonicalize(cp.field, cp.k, [row for u in self.subfile_array[x].tolist()
                                          for row in self.user_matrices[u]])
            for x in first.tolist()
        ]
        order = sorted(range(len(bases)), key=lambda i: bases[i].key())
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        members = [tuple(np.nonzero(self.span_mask[first[i]])[0].tolist()) for i in order]
        return [bases[i] for i in order], members, rank[inverse.reshape(-1)].tolist()

    @property
    def sum_spaces(self) -> list[SubspaceBasis]:
        return self._spans[0]

    @property
    def members(self) -> list[tuple[int, ...]]:
        return self._spans[1]

    @property
    def subfile_span(self) -> list[int]:
        return self._spans[2]

    def subfile_sum_space(self, x: int) -> SubspaceBasis:
        return self.sum_spaces[self.subfile_span[x]]


def build_universe(params: ConstructionParams, max_vertices: int | None = DEFAULT_VERTEX_CAP) -> Universe:
    """Enumerate the points and the subfile sets for the parameters.

    Refuses up front when the closed-form vertex count K*D exceeds
    max_vertices, reporting the predicted sizes.
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
    # q^n <= K*D whenever the line graph is not empty, so this only bounds
    # the work tables of a degenerate (m + t = k) instance.
    if max_vertices is not None and cp.q ** n > max_vertices:
        raise CapacityError(
            f"predicted {cp.q ** n} vectors in GF({cp.q})^{n} exceed cap {max_vertices}"
        )

    pts = _Points(cp.field, n)
    k_users = len(pts.codes)
    _require(k_users == cp.num_users, "build_universe",
             f"{k_users} points, closed form K = {cp.num_users}")

    # Level 1: single points, each spanning itself and its multiples.
    sets = np.arange(k_users, dtype=np.int64)[:, None]
    in_span = np.eye(k_users, dtype=bool)
    vectors = pts.multiples
    for level in range(1, cp.m + 1):
        rows, new = _extensions(sets, in_span)
        base = vectors[rows]                 # span vectors of the set being extended
        sets = np.column_stack((sets[rows], new))
        in_span = in_span[rows]
        # The points gained are those of v + new over the old span's vectors v.
        gained = pts.point_of[pts.add(base, pts.multiples[new, 1:2])]
        in_span[np.arange(len(rows))[:, None], gained] = True
        if level < cp.m:
            vectors = pts.add(base[:, :, None], pts.multiples[new][:, None, :]
                              ).reshape(len(rows), -1)

    _require(len(sets) == predicted_f, "build_universe",
             f"{len(sets)} independent (m+1)-sets, closed form F = {predicted_f}")
    span_points = q_binomial(cp.m + 1, 1, cp.q)
    _require((in_span.sum(axis=1) == span_points).all(), "build_universe",
             f"every subfile spans {span_points} points")
    return Universe(params=cp, points=pts.codes, subfile_array=sets, span_mask=in_span)


# ----------------------------------------------------------------------
# The line graph
# ----------------------------------------------------------------------

@dataclass
class CachingLineGraph:
    """Vertex set {(user, subfile): user's point outside the subfile's span}
    as an F x K mask, with its user-clique and subfile-clique partitions."""

    universe: Universe
    vertex_mask: np.ndarray  # (F, K) bool; [x, u] set when (u, x) is a vertex
    subfile_clique_size: int
    user_clique_size: int

    @property
    def params(self) -> ConstructionParams:
        return self.universe.params

    @property
    def num_users(self) -> int:
        return self.universe.num_users

    @property
    def subpacketization(self) -> int:
        return self.universe.subpacketization

    @property
    def vertex_count(self) -> int:
        return self.num_users * self.user_clique_size

    @cached_property
    def user_cliques(self) -> list[np.ndarray]:
        """Per user, the sorted subfile indices it does not cache."""
        subs = np.nonzero(self.vertex_mask.T)[1]
        return list(subs.reshape(self.num_users, self.user_clique_size))

    @cached_property
    def subfile_cliques(self) -> list[tuple[int, ...]]:
        """Per subfile, the sorted user indices that do not cache it."""
        users = np.nonzero(self.vertex_mask)[1]
        return list(map(tuple, users.reshape(-1, self.subfile_clique_size).tolist()))

    def has_vertex(self, user: int, subfile: int) -> bool:
        return bool(self.vertex_mask[subfile, user])

    def vertex_labels(self):
        """All (user, subfile) labels, grouped by subfile clique."""
        subs, users = np.nonzero(self.vertex_mask)
        return zip(users.tolist(), subs.tolist())


def build_line_graph(universe: Universe) -> CachingLineGraph:
    cp = universe.params
    clique_size = cp.subfile_clique_size
    if clique_size == 0:
        raise DegenerateConstructionError(
            "m + t = k leaves every subfile cached at every user: empty line graph"
        )
    vertex_mask = ~universe.span_mask
    _require((vertex_mask.sum(axis=1) == clique_size).all(), "build_line_graph",
             f"every subfile clique has c = {clique_size} users")
    expected_d = cp.user_clique_size
    _require((vertex_mask.sum(axis=0) == expected_d).all(), "build_line_graph",
             f"every user clique has D = {expected_d} subfiles")
    return CachingLineGraph(universe=universe, vertex_mask=vertex_mask,
                            subfile_clique_size=clique_size, user_clique_size=expected_d)


def is_compl_square_edge(graph: CachingLineGraph, v1: tuple[int, int], v2: tuple[int, int]) -> bool:
    """Edge test in the complement of the squared line graph.

    (u1, x1) and (u2, x2) are joined exactly when the users differ, the
    subfiles differ, and neither crossed pair (u1, x2), (u2, x1) is a
    vertex, i.e. each user has the other's subfile cached.
    """
    u1, x1 = v1
    u2, x2 = v2
    for u, x in (v1, v2):
        if not (0 <= u < graph.num_users and 0 <= x < graph.subpacketization):
            raise ValueError(f"({u}, {x}) is out of range")
        if not graph.has_vertex(u, x):
            raise ValueError(f"({u}, {x}) is not a vertex of the line graph")
    if u1 == u2 or x1 == x2:
        return False
    return not graph.has_vertex(u1, x2) and not graph.has_vertex(u2, x1)


# ----------------------------------------------------------------------
# Transmission cliques
# ----------------------------------------------------------------------

@dataclass
class TransmissionCover:
    """Disjoint transmission cliques covering every vertex.

    Row i of `users`/`subfiles` is one clique: d = m+2 vertex pairs,
    ordered by user index.  clique_of[(user, subfile)] recovers the row.
    """

    users: np.ndarray     # (num_cliques, d) int64
    subfiles: np.ndarray  # (num_cliques, d) int64
    clique_of: np.ndarray  # (K, F) int64, -1 where no vertex

    @property
    def num_cliques(self) -> int:
        return self.users.shape[0]

    @property
    def group_size(self) -> int:
        return self.users.shape[1]

    def clique(self, i: int) -> list[tuple[int, int]]:
        return list(zip(self.users[i].tolist(), self.subfiles[i].tolist()))


def enumerate_transmission_cliques(graph: CachingLineGraph) -> TransmissionCover:
    """All independent (m+2)-sets of points, as cliques.

    Each set Y extends a subfile by one point outside its span, and
    yields the clique {(u, Y minus u)}.  Each member's subfile is found by
    binary search on the subfiles' radix-K keys; the cliques are checked
    to be disjoint and to cover the vertex set.
    """
    step = "enumerate_transmission_cliques"
    uni = graph.universe
    k_users, d = graph.num_users, uni.params.m + 2
    subfiles = uni.subfile_array
    rows, new = _extensions(subfiles, uni.span_mask)
    users = np.column_stack((subfiles[rows], new))
    _require(len(users) * d == graph.vertex_count, step,
             f"{len(users)} cliques of {d} cover K*D = {graph.vertex_count} vertices")

    weights = k_users ** np.arange(d - 2, -1, -1, dtype=np.int64)
    keys = subfiles @ weights
    subs = np.empty_like(users)
    for j in range(d):
        rest = np.delete(users, j, axis=1) @ weights
        found = np.minimum(np.searchsorted(keys, rest), len(keys) - 1)
        _require((keys[found] == rest).all(), step,
                 "every clique minus one member is a subfile")
        subs[:, j] = found

    clique_of = np.full((k_users, graph.subpacketization), -1, dtype=np.int64)
    clique_of[users, subs] = np.arange(len(users))[:, None]
    _require(graph.vertex_mask[subs, users].all(), step, "every clique member is a vertex")
    _require(np.count_nonzero(clique_of >= 0) == graph.vertex_count, step,
             "the cliques are disjoint")
    return TransmissionCover(users=users, subfiles=subs, clique_of=clique_of)


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


def verify_vertex_labels(labels, num_users: int, num_subfiles: int) -> LineGraphReport:
    """Check the caching-line-graph conditions on raw (user, subfile) labels.

    labels is an (N, 2) array or any iterable of pairs.  Conditions:
    (i) user cliques partition the vertices with one common size; (ii) a
    vertex has at most one neighbour inside any other user clique; (iii) a
    vertex plus its neighbours outside its own user clique form a clique;
    (iv) the number of subfile cliques matches.
    """
    if not isinstance(labels, np.ndarray):
        labels = list(labels)
    pairs = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    users, subs = pairs[:, 0], pairs[:, 1]
    violations: list[str] = []

    user_ids, per_user = np.unique(users, return_counts=True)
    sizes = np.unique(per_user).tolist()
    user_partition_ok = len(user_ids) == num_users and len(sizes) == 1
    if len(user_ids) != num_users:
        violations.append(
            f"condition (i): {len(user_ids)} user cliques, expected {num_users}"
        )
    if len(sizes) > 1:
        violations.append(f"condition (i): unequal user clique sizes {sizes}")

    # Sorted (subfile, user) keys give the subfile cliques as runs.  (ii)
    # and (iii) fail on the same labels: a repeated (u, x) is a user
    # counted twice in subfile clique x, so that clique is not a clique.
    u_lo, x_lo = users.min(initial=0), subs.min(initial=0)
    width = users.max(initial=0) - u_lo + 1
    keys = (subs - x_lo) * width + (users - u_lo)
    ordered = np.sort(keys)
    sorted_subs = ordered // width
    num_subfile_cliques = int(np.count_nonzero(np.diff(sorted_subs))) + bool(len(keys))
    cross_degree_ok = subfile_clique_ok = bool((np.diff(ordered) != 0).all())
    if not cross_degree_ok:
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        twice: dict[int, list[int]] = {}
        for i, times in sorted(zip(first[counts > 1].tolist(), counts[counts > 1].tolist())):
            lab = (int(users[i]), int(subs[i]))
            twice.setdefault(lab[1], []).append(lab[0])
            violations.append(
                f"condition (ii): label {lab} occurs {times} times, so some vertex "
                f"has two neighbours in one other user clique"
            )
        # (iii) lists subfile cliques in the order of their first label.
        for x in sorted(twice, key=lambda x: np.flatnonzero(subs == x)[0]):
            violations.append(
                f"condition (iii): subfile clique {x} holds user "
                f"{sorted(twice[x])} twice; it is not a clique"
            )

    subfile_count_ok = num_subfile_cliques == num_subfiles
    if not subfile_count_ok:
        violations.append(
            f"condition (iv): {num_subfile_cliques} subfile cliques, expected {num_subfiles}"
        )

    return LineGraphReport(
        user_partition_ok=user_partition_ok,
        cross_degree_ok=cross_degree_ok,
        subfile_clique_ok=subfile_clique_ok,
        subfile_count_ok=subfile_count_ok,
        violations=violations,
    )


def verify_line_graph(graph: CachingLineGraph) -> LineGraphReport:
    subs, users = np.nonzero(graph.vertex_mask)
    return verify_vertex_labels(np.column_stack((users, subs)),
                                graph.num_users, graph.subpacketization)
