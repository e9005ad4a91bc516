"""Closed-form subspace counts over GF(q), and the invariant error.

The construction never lists subspaces of GF(q)^k: it works on the
points of a projective space (see `pgcache.linegraph`) and checks what
it enumerates against the exact counts here: q-binomials,
fixed-intersection counts and generating-set counts.  A count that
comes out fractional, or a step whose output breaks one of these closed
forms, raises `InvariantError`.
"""

from __future__ import annotations

from typing import NamedTuple


class InvariantError(AssertionError):
    """A step produced output that breaks one of its invariants.

    Raised explicitly, so the checks still run under ``python -O``."""


def q_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dim subspaces of GF(q)^a, as an exact integer.

    Telescoping product (q^a - 1)...(q^(a-b+1) - 1) / ((q^b - 1)...(q - 1));
    returns 1 for b = 0 and 0 for b > a.
    """
    if a < 0 or b < 0:
        raise ValueError("arguments must be non-negative")
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if b > a:
        return 0
    b = min(b, a - b)
    num = 1
    den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise InvariantError(f"q_binomial: [{a} choose {b}]_{q} = {num}/{den} "
                             f"is not an integer")
    return num // den


def count_intersecting(k: int, r: int, s: int, l: int, q: int) -> int:
    """Number of r-dim subspaces of GF(q)^k meeting a fixed s-dim subspace
    exactly in a fixed l-dim subspace of it.

    Equals q^((r-l)(s-l)) * [k-s choose r-l]_q.  l = 0 (the meet is the
    zero space) is accepted; the formula's brute-force checks cover it.
    """
    if not (1 <= r < k and 1 <= s < k):
        raise ValueError(f"need 1 <= r, s < k, got r={r}, s={s}, k={k}")
    if not 0 <= l <= min(r, s):
        raise ValueError(f"need 0 <= l <= min(r, s), got l={l}")
    return q ** ((r - l) * (s - l)) * q_binomial(k - s, r - l, q)


class GeneratingSetCounts(NamedTuple):
    vector_sets: int     # (m+1)-sets of 1-dim spaces joining w up to p
    subspace_sets: int   # (m+1)-sets of (w+1)-dim superspaces of w with full sum


def generating_set_counts(q: int, m: int, t: int) -> GeneratingSetCounts:
    """Closed-form counts behind the per-span subfile enumeration.

    For a fixed (t-1)-dim w inside a fixed (m+t)-dim p:
      vector_sets  = prod_{i=0..m} (q^(m+t) - q^(t-1+i)) / ((q-1)^(m+1) (m+1)!)
      subspace_sets = vector_sets / q^((t-1)(m+1))
                    = prod_{i=0..m} (q^(m+1) - q^i) / ((q-1)^(m+1) (m+1)!)
    """
    if m < 0 or t < 1:
        raise ValueError(f"need m >= 0 and t >= 1, got m={m}, t={t}")
    num = 1
    for i in range(m + 1):
        num *= q ** (m + t) - q ** (t - 1 + i)
    den = (q - 1) ** (m + 1)
    for i in range(2, m + 2):
        den *= i
    if num % den:
        raise InvariantError(f"generating_set_counts: {num}/{den} vector sets "
                             f"is not an integer")
    g_prime = num // den
    shift = q ** ((t - 1) * (m + 1))
    if g_prime % shift:
        raise InvariantError(f"generating_set_counts: {g_prime} vector sets are "
                             f"not a multiple of q^((t-1)(m+1)) = {shift}")
    return GeneratingSetCounts(g_prime, g_prime // shift)
