"""Independent brute-force oracles for the test suite.

Everything but the last two sections works on explicit element sets of
subspaces over prime fields GF(q), using plain mod-q arithmetic: no row
reduction, no canonical forms, no code shared with the package under
test.  A subspace is a frozenset of coordinate tuples; families of
subspaces are grown one dimension at a time by closing a known element
set over one new vector.

The last two sections read a built universe.  The first gives its
subspace views as element sets spanned by its lifted user matrices, a
path apart from the point codes that the universe is built on: the
user spaces, the sum spaces with their members, and each subfile's sum
space.  Like the rest of the oracle they need a prime q.  The second
reads the line graph, the universe's outside mask, by (user, subfile)
label: the vertex test, the complement-square edge test and the
line-graph conditions checked label by label, the references that the
package's mask-based checks are compared with.  The only name taken
from the package is the report type those checks return.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from pgcache.linegraph import LineGraphReport

Vec = tuple[int, ...]
Space = frozenset  # of Vec


def vadd(u: Vec, v: Vec, q: int) -> Vec:
    return tuple((a + b) % q for a, b in zip(u, v))


def vscale(c: int, v: Vec, q: int) -> Vec:
    return tuple((c * a) % q for a in v)


def span_of(vectors, k: int, q: int) -> Space:
    """Element set of the span, grown one generator at a time."""
    elems = {tuple([0] * k)}
    for v in vectors:
        if v in elems:
            continue
        elems = {vadd(x, vscale(c, v, q), q) for x in elems for c in range(q)}
    return frozenset(elems)


def space_dim(space: Space, q: int) -> int:
    size = len(space)
    dim = 0
    while q ** dim < size:
        dim += 1
    assert q ** dim == size
    return dim


@lru_cache(maxsize=None)
def _grow(q: int, k: int, base: Space, dim: int) -> tuple[Space, ...]:
    base_dim = space_dim(base, q)
    if dim == base_dim:
        return (base,)
    vectors = list(product(range(q), repeat=k))
    out = set()
    for space in _grow(q, k, base, dim - 1):
        for v in vectors:
            if v not in space:
                out.add(frozenset(
                    vadd(x, vscale(c, v, q), q) for x in space for c in range(q)
                ))
    return tuple(sorted(out, key=sorted))


def all_subspaces(q: int, k: int, dim: int) -> tuple[Space, ...]:
    """All dim-dimensional subspaces of GF(q)^k as element sets."""
    zero = frozenset({tuple([0] * k)})
    return _grow(q, k, zero, dim)


def count_subspaces(q: int, k: int, dim: int) -> int:
    return len(all_subspaces(q, k, dim))


def superspaces_of(q: int, k: int, base: Space, dim: int) -> tuple[Space, ...]:
    """All dim-dimensional subspaces containing the base space."""
    if space_dim(base, q) > dim:
        return ()
    return _grow(q, k, base, dim)


def count_meeting_exactly(q: int, k: int, r: int, s_space: Space, l_space: Space) -> int:
    """r-dim subspaces whose intersection with s_space is exactly l_space."""
    assert l_space <= s_space
    total = 0
    for cand in all_subspaces(q, k, r):
        if cand & s_space == l_space:
            total += 1
    return total


def prefix_space(q: int, k: int, dim: int) -> Space:
    """Span of the first `dim` standard basis vectors, as an element set."""
    return span_of(
        [tuple(1 if j == i else 0 for j in range(k)) for i in range(dim)], k, q)


def subfile_sets_by_span(q: int, k: int, m: int, t: int):
    """Oracle for the construction's universe, by exhaustive enumeration.

    Returns (user_spaces, spans) where spans maps each (m+t)-dim
    superspace of the root to the list of (m+1)-subsets of user spaces
    inside it whose element-set span is the whole superspace.
    """
    root = prefix_space(q, k, t - 1)
    users = list(superspaces_of(q, k, root, t))
    spans = {}
    for p in superspaces_of(q, k, root, m + t):
        inside = [i for i, u in enumerate(users) if u <= p]
        hits = []
        for combo in combinations(inside, m + 1):
            gens = set()
            for i in combo:
                gens |= users[i]
            if span_of(sorted(gens), k, q) == p:
                hits.append(combo)
        spans[p] = hits
    return users, spans


def transmission_groups(q: int, k: int, m: int, t: int):
    """Oracle for the delivery groups, by exhaustive enumeration.

    Returns (user_spaces, groups): every (m+2)-set of user spaces, as a
    frozenset of element sets, whose span has dimension m+t+1.
    """
    users = list(superspaces_of(q, k, prefix_space(q, k, t - 1), t))
    groups = []
    for combo in combinations(users, m + 2):
        gens = set().union(*combo)
        if space_dim(span_of(sorted(gens), k, q), q) == m + t + 1:
            groups.append(frozenset(combo))
    return users, groups


def oracle_universe_counts(q: int, k: int, m: int, t: int):
    """K, c per span, per-user D, and per-span subfile counts, all brute force."""
    users, spans = subfile_sets_by_span(q, k, m, t)
    big_k = len(users)
    c_values = set()
    per_span_counts = []
    d_per_user = [0] * big_k
    for p, hits in spans.items():
        members = {i for i, u in enumerate(users) if u <= p}
        c_values.add(big_k - len(members))
        per_span_counts.append(len(hits))
        for i in range(big_k):
            if i not in members:
                d_per_user[i] += len(hits)
    return {
        "K": big_k,
        "c_values": c_values,
        "per_span_counts": per_span_counts,
        "d_per_user": d_per_user,
        "total_subfiles": sum(per_span_counts),
        "num_spans": len(spans),
    }


def oracle_candidate_sets(q: int, k: int, m: int, t: int) -> int:
    """Size of the brute-force search space for the subfile enumeration."""
    from math import comb

    def qbin(a, b):
        if b > a:
            return 0
        num = den = 1
        for i in range(b):
            num *= q ** (a - i) - 1
            den *= q ** (i + 1) - 1
        return num // den

    members = qbin(m + 1, 1)
    num_spans = qbin(k - t + 1, m + 1)
    return num_spans * comb(members, m + 1)


# ----------------------------------------------------------------------
# Subspace views of a built universe
# ----------------------------------------------------------------------

def user_spaces(universe) -> list[Space]:
    """Each user's t-dim space, spanned by its lifted user matrix."""
    k, q = universe.params.k, universe.params.q
    return [span_of(rows, k, q) for rows in universe.user_matrices]


def _spans(universe) -> tuple[list[Space], list[tuple[int, ...]], list[int]]:
    """Sum spaces in canonical order, their members, and each subfile's
    sum space; subfiles share a sum space exactly when their masks
    agree."""
    cp = universe.params
    mask = universe.outside_mask
    _, first, inverse = np.unique(np.packbits(mask, axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    spaces = [
        span_of([row for u in universe.subfile_array[x].tolist()
                 for row in universe.user_matrices[u]], cp.k, cp.q)
        for x in first.tolist()
    ]
    order = sorted(range(len(spaces)), key=lambda i: sorted(spaces[i]))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    members = [tuple(np.nonzero(~mask[first[i]])[0].tolist()) for i in order]
    return [spaces[i] for i in order], members, rank[inverse.reshape(-1)].tolist()


def sum_spaces(universe) -> list[Space]:
    """The distinct (m+t)-dim spans of the subfiles, in canonical order."""
    return _spans(universe)[0]


def members(universe) -> list[tuple[int, ...]]:
    """Per sum space, the users whose space lies inside it."""
    return _spans(universe)[1]


def subfile_span(universe) -> list[int]:
    """Per subfile, the index of its sum space."""
    return _spans(universe)[2]


def subfile_sum_space(universe, x: int) -> Space:
    spaces, _, span_of_subfile = _spans(universe)
    return spaces[span_of_subfile[x]]


# ----------------------------------------------------------------------
# Label-level oracles on a built line graph
# ----------------------------------------------------------------------

def has_vertex(graph, user: int, subfile: int) -> bool:
    return bool(graph.outside_mask[subfile, user])


def vertex_labels(graph):
    """All (user, subfile) labels, grouped by subfile clique."""
    subs, users = np.nonzero(graph.outside_mask)
    return zip(users.tolist(), subs.tolist())


def is_compl_square_edge(graph, v1: tuple[int, int], v2: tuple[int, int]) -> bool:
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
        if not has_vertex(graph, u, x):
            raise ValueError(f"({u}, {x}) is not a vertex of the line graph")
    if u1 == u2 or x1 == x2:
        return False
    return not has_vertex(graph, u1, x2) and not has_vertex(graph, u2, x1)


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
    _, per_user = np.unique(users, return_counts=True)

    # Sorted (subfile, user) keys give the subfile cliques as runs.  (ii)
    # and (iii) fail on the same labels: a repeated (u, x) is a user
    # counted twice in subfile clique x, so that clique is not a clique.
    u_lo, x_lo = users.min(initial=0), subs.min(initial=0)
    width = users.max(initial=0) - u_lo + 1
    keys = (subs - x_lo) * width + (users - u_lo)
    ordered = np.sort(keys)
    num_subfile_cliques = int(np.count_nonzero(np.diff(ordered // width))) + bool(len(keys))
    repeats: list[str] = []
    if not (np.diff(ordered) != 0).all():
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        twice: dict[int, list[int]] = {}
        for i, times in sorted(zip(first[counts > 1].tolist(), counts[counts > 1].tolist())):
            lab = (int(users[i]), int(subs[i]))
            twice.setdefault(lab[1], []).append(lab[0])
            repeats.append(
                f"condition (ii): label {lab} occurs {times} times, so some vertex "
                f"has two neighbours in one other user clique"
            )
        # (iii) lists subfile cliques in the order of their first label.
        for x in sorted(twice, key=lambda x: np.flatnonzero(subs == x)[0]):
            repeats.append(
                f"condition (iii): subfile clique {x} holds user "
                f"{sorted(twice[x])} twice; it is not a clique"
            )

    violations: list[str] = []
    sizes = np.unique(per_user).tolist()
    if len(per_user) != num_users:
        violations.append(
            f"condition (i): {len(per_user)} user cliques, expected {num_users}"
        )
    if len(sizes) > 1:
        violations.append(f"condition (i): unequal user clique sizes {sizes}")
    violations += repeats
    subfile_count_ok = num_subfile_cliques == num_subfiles
    if not subfile_count_ok:
        violations.append(
            f"condition (iv): {num_subfile_cliques} subfile cliques, expected {num_subfiles}"
        )
    return LineGraphReport(
        user_partition_ok=len(per_user) == num_users and len(sizes) == 1,
        cross_degree_ok=not repeats,
        subfile_clique_ok=not repeats,
        subfile_count_ok=subfile_count_ok,
        violations=violations,
    )
