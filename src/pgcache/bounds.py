"""Lower bounds on R*F for symmetric caching schemes.

Given a caching system (K users, F subfiles, D uncached subfiles per
user) this module computes:

  * bound_biregular - the nested-ceiling bound for bi-regular placements
                      (every subfile missing at the same number of users),
  * bound_pda       - the older nested-ceiling bound that starts from the
                      average subfile degree,
  * bound_cutset    - the optimal-uncoded-placement bound
                      F * K(1-M/N) / (1 + K M/N), kept as an exact rational,
  * bound_generic   - the ordering bound evaluated on an explicit placement:
                      pick users k_1, k_2, ... and sum the sizes of the
                      common neighbourhoods N(k_1) ∩ ... ∩ N(k_j).

bound_generic counts the subfiles missing at every chosen user so far,
which is the quantity the bi-regular bound's pigeonhole argument tracks;
with that reading a greedy ordering always dominates bound_biregular.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import ceil
from typing import Sequence

import numpy as np


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ----------------------------------------------------------------------
# System triples
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SystemTriple:
    """(K, F, D): users, subfiles, and uncached subfiles per user."""

    users: int
    subpacketization: int
    missing_per_user: int

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ValueError("need at least one user")
        if not 0 < self.missing_per_user <= self.subpacketization:
            raise ValueError("need 0 < D <= F")

    @property
    def uncached_users_exact(self) -> Fraction:
        """K(1 - M/N): users missing each subfile, exact."""
        return Fraction(self.users * self.missing_per_user, self.subpacketization)

    @property
    def is_biregular(self) -> bool:
        return self.uncached_users_exact.denominator == 1

    @property
    def uncached_users(self) -> int:
        if not self.is_biregular:
            raise ValueError(
                f"K*D/F = {self.uncached_users_exact} is not an integer; "
                f"the placement cannot be bi-regular"
            )
        return self.uncached_users_exact.numerator


# ----------------------------------------------------------------------
# Closed-form bounds
# ----------------------------------------------------------------------

def bound_biregular(st: SystemTriple) -> int:
    """Nested-ceiling bound for bi-regular placements.

    T_1 = D, T_{j+1} = ceil(T_j * (K(1-M/N) - j) / (K - j)); the bound is
    the sum of the first K(1-M/N) terms.  Rejects non-bi-regular triples
    rather than rounding them.
    """
    return sum(biregular_bound_terms(st))  # uncached_users raises when not bi-regular


def biregular_bound_terms(st: SystemTriple) -> list[int]:
    """The individual nested-ceiling terms (len = K(1-M/N))."""
    r = st.uncached_users
    return _nested_ceiling(st.missing_per_user, r, st.users, r)


def bound_pda(st: SystemTriple) -> int:
    """Nested-ceiling bound starting from the average subfile degree.

    T_1 = ceil(DK/F), T_{j+1} = ceil(T_j * (D - j) / (F - j)); D terms in
    total, the last carrying the factor 1/(F - D + 1).
    """
    big_d = st.missing_per_user
    big_f = st.subpacketization
    return sum(_nested_ceiling(_ceil_div(big_d * st.users, big_f), big_d, big_f, big_d))


def _nested_ceiling(first: int, top: int, bottom: int, count: int) -> list[int]:
    """T_1 = first, T_{j+1} = ceil(T_j * (top - j) / (bottom - j)), up to T_count."""
    terms = [first]
    for j in range(1, count):
        terms.append(_ceil_div(terms[-1] * (top - j), bottom - j))
    return terms


def bound_cutset(st: SystemTriple) -> Fraction:
    """Optimal-uncoded-placement bound F * K(1-M/N) / (1 + K*M/N), exact."""
    k, f, d = st.users, st.subpacketization, st.missing_per_user
    return Fraction(k * d * f, f + k * (f - d))


def bound_cutset_reported(st: SystemTriple) -> int:
    """Integer report of the cutset bound.

    R*F counts subfile-sized transmissions, so the exact rational rounds
    up to the tightest integer bound.
    """
    return ceil(bound_cutset(st))


# ----------------------------------------------------------------------
# Ordering bound on explicit placements
# ----------------------------------------------------------------------

@dataclass
class OrderingTrace:
    """Per-step neighbourhood sizes for one user ordering."""

    ordering: tuple[int, ...]
    rhos: list[int]
    n_prime: int

    @property
    def value(self) -> int:
        return sum(self.rhos)


class _OrderingWalk:
    """The ordering bound's walk on one placement.  The state is a bitmask
    of the subfiles missing at every user so far, starting from all."""

    def __init__(self, placement) -> None:
        matrix = placement.matrix if hasattr(placement, "matrix") else np.asarray(placement)
        total_k, total_f = matrix.shape
        packed = np.packbits(matrix.astype(np.uint8), axis=1, bitorder="little")
        self.masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
        degrees = set(matrix.sum(axis=1).tolist())
        if len(degrees) != 1:
            raise ValueError("placement is not left-regular")
        # floor of K(1-M/N)
        self.n_prime = total_k * int(degrees.pop()) // total_f
        self.start = (1 << total_f) - 1

    def terms(self, ordering: Sequence[int]) -> list[int]:
        state = self.start
        out = []
        for user in ordering:
            state &= self.masks[user]
            out.append(state.bit_count())
        return out


def bound_generic_trace(placement, ordering: Sequence[int]) -> OrderingTrace:
    """Ordering bound with the per-step sizes exposed: rho_j counts the
    subfiles missing at every one of the first j users (monotone
    intersections, matching the bi-regular recursion)."""
    walk = _OrderingWalk(placement)
    ordering = tuple(ordering)
    if len(set(ordering)) != len(ordering):
        raise ValueError("ordering repeats a user")
    total_k = len(walk.masks)
    for user in ordering:
        if not 0 <= user < total_k:
            raise ValueError(f"user {user} is outside [0, {total_k})")
    ordering = ordering[:walk.n_prime]
    return OrderingTrace(ordering=ordering, rhos=walk.terms(ordering), n_prime=walk.n_prime)


def bound_generic(placement, ordering: Sequence[int]) -> int:
    return bound_generic_trace(placement, ordering).value


@dataclass
class OrderingSearchResult:
    value: int
    ordering: tuple[int, ...]
    exhaustive: bool


def bound_generic_max(placement, exhaustive_limit: int = 8) -> OrderingSearchResult:
    """Best ordering bound over user orderings.

    Exact (all orderings of length N') when the placement has at most
    exhaustive_limit users, greedy max-intersection otherwise.  Ties break to the
    lexicographically least ordering in both cases.
    """
    walk = _OrderingWalk(placement)
    users = range(len(walk.masks))
    if len(users) <= exhaustive_limit:
        # permutations of the ascending users come in lexicographic order,
        # and max keeps the first maximum
        best = max(permutations(users, walk.n_prime), key=lambda o: sum(walk.terms(o)))
        return OrderingSearchResult(sum(walk.terms(best)), best, exhaustive=True)

    chosen: list[int] = []
    remaining = list(users)
    state = walk.start
    for _ in range(walk.n_prime):
        user = max(remaining, key=lambda u: (state & walk.masks[u]).bit_count())
        state &= walk.masks[user]
        chosen.append(user)
        remaining.remove(user)
    return OrderingSearchResult(sum(walk.terms(chosen)), tuple(chosen), exhaustive=False)


# ----------------------------------------------------------------------
# Aggregate report
# ----------------------------------------------------------------------

@dataclass
class BoundsReport:
    """All applicable bounds for one (K, F, D) triple."""

    triple: SystemTriple
    biregular_bound: int | None        # bound_biregular, None when inapplicable
    biregular_note: str | None
    pda_bound: int
    cutset_bound: int                  # ceil of the exact value
    cutset_exact: Fraction

    def as_dict(self) -> dict:
        out = {
            "users": self.triple.users,
            "subpacketization": self.triple.subpacketization,
            "missing_per_user": self.triple.missing_per_user,
            "biregular_bound": self.biregular_bound,
            "pda_bound": self.pda_bound,
            "cutset_bound": self.cutset_bound,
            "cutset_exact": f"{self.cutset_exact.numerator}/{self.cutset_exact.denominator}",
        }
        if self.biregular_note:
            out["biregular_note"] = self.biregular_note
        return out


def bounds_report(st: SystemTriple) -> BoundsReport:
    if st.is_biregular:
        biregular = bound_biregular(st)
        note = None
    else:
        biregular = None
        note = f"K*D/F = {st.uncached_users_exact} is not a positive integer"
    return BoundsReport(
        triple=st,
        biregular_bound=biregular,
        biregular_note=note,
        pda_bound=bound_pda(st),
        cutset_bound=bound_cutset_reported(st),
        cutset_exact=bound_cutset(st),
    )
