"""Independent brute-force oracles for the test suite.

Everything here works on explicit element sets of subspaces over prime
fields GF(q), using plain mod-q arithmetic: no row reduction, no
canonical forms, no code shared with the package under test.  A subspace
is a frozenset of coordinate tuples; families of subspaces are grown one
dimension at a time by closing a known element set over one new vector.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

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
