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

For bound_generic the default "shared" mode counts subfiles missing at
every chosen user so far, which is the quantity the bi-regular bound's
pigeonhole argument tracks; with that reading a greedy ordering always
dominates bound_biregular.  A "fresh" mode (subfiles newly covered by each
user) is available for tightness experiments.
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
    def cached_fraction(self) -> Fraction:
        return Fraction(self.subpacketization - self.missing_per_user,
                        self.subpacketization)

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
    if st.uncached_users < 1:  # raises when not bi-regular
        raise ValueError("K(1-M/N) must be at least 1")
    return sum(biregular_bound_terms(st))


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


def _selection(ids: Sequence[int] | None, total: int, what: str) -> list[int]:
    """The sorted ids of a restriction to users or subfiles, all of them
    for None; each id must lie in [0, total) and appear once."""
    chosen = sorted(range(total) if ids is None else ids)
    for end in chosen[:1] + chosen[-1:]:
        if not 0 <= end < total:
            raise ValueError(f"{what} {end} is outside [0, {total})")
    if len(set(chosen)) != len(chosen):
        raise ValueError(f"{what}s repeat an id")
    return chosen


class _OrderingWalk:
    """The ordering bound's step on one placement, over the selected users
    (`pool`, sorted) and subfiles.  The state is a bitmask of subfiles: in
    "shared" mode those missing at every user so far, starting from all;
    in "fresh" mode those missing at any user so far, starting from none.
    """

    def __init__(self, placement, users: Sequence[int] | None,
                 subfiles: Sequence[int] | None, mode: str) -> None:
        if mode not in ("shared", "fresh"):
            raise ValueError(f"unknown mode {mode!r}")
        matrix = placement.matrix if hasattr(placement, "matrix") else np.asarray(placement)
        total_k, total_f = matrix.shape
        self.pool = _selection(users, total_k, "user")
        if subfiles is not None and not len(subfiles):
            raise ValueError("subfiles selects no subfile")
        rows = matrix if subfiles is None else matrix[:, _selection(subfiles, total_f, "subfile")]
        packed = np.packbits(rows.astype(np.uint8), axis=1, bitorder="little")
        self.masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
        degrees = set(matrix.sum(axis=1).tolist())
        if len(degrees) != 1:
            raise ValueError("placement is not left-regular")
        # floor of K(1-M/N)
        self.n_prime = min(len(self.pool), total_k * int(degrees.pop()) // total_f)
        self.shared = mode == "shared"
        self.start = (1 << rows.shape[1]) - 1 if self.shared else 0

    def step(self, state: int, user: int) -> tuple[int, int]:
        mask = self.masks[user]
        if self.shared:
            state &= mask
            return state.bit_count(), state
        return (mask & ~state).bit_count(), state | mask

    def terms(self, ordering: Sequence[int]) -> list[int]:
        state = self.start
        out = []
        for user in ordering:
            term, state = self.step(state, user)
            out.append(term)
        return out


def bound_generic_trace(placement, ordering: Sequence[int],
                        users: Sequence[int] | None = None,
                        subfiles: Sequence[int] | None = None,
                        mode: str = "shared") -> OrderingTrace:
    """Ordering bound with the per-step sizes exposed.

    mode "shared": rho_j = subfiles adjacent to every one of the first j
    users (monotone intersections, matching the bi-regular recursion).
    mode "fresh": rho_j = subfiles seen at user j for the first time.
    """
    walk = _OrderingWalk(placement, users, subfiles, mode)
    ordering = tuple(ordering)
    if len(set(ordering)) != len(ordering):
        raise ValueError("ordering repeats a user")
    if not set(ordering) <= set(walk.pool):
        raise ValueError("ordering contains users outside the selection")
    ordering = ordering[:walk.n_prime]
    return OrderingTrace(ordering=ordering, rhos=walk.terms(ordering), n_prime=walk.n_prime)


def bound_generic(placement, ordering: Sequence[int],
                  users: Sequence[int] | None = None,
                  subfiles: Sequence[int] | None = None,
                  mode: str = "shared") -> int:
    return bound_generic_trace(placement, ordering, users, subfiles, mode).value


@dataclass
class OrderingSearchResult:
    value: int
    ordering: tuple[int, ...]
    exhaustive: bool


def bound_generic_max(placement,
                      users: Sequence[int] | None = None,
                      subfiles: Sequence[int] | None = None,
                      mode: str = "shared",
                      exhaustive_limit: int = 8) -> OrderingSearchResult:
    """Best ordering bound over user orderings.

    Exact (all orderings of length N') when at most exhaustive_limit users
    are in play, greedy max-intersection otherwise.  Ties break to the
    lexicographically least ordering in both cases.
    """
    walk = _OrderingWalk(placement, users, subfiles, mode)
    if len(walk.pool) <= exhaustive_limit:
        # permutations of the sorted pool come in lexicographic order, and
        # max keeps the first maximum
        best = max(permutations(walk.pool, walk.n_prime), key=lambda o: sum(walk.terms(o)))
        return OrderingSearchResult(sum(walk.terms(best)), best, exhaustive=True)

    chosen: list[int] = []
    remaining = list(walk.pool)
    state = walk.start
    for _ in range(walk.n_prime):
        user = max(remaining, key=lambda u: walk.step(state, u)[0])
        state = walk.step(state, user)[1]
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
    ordering_bound: OrderingSearchResult | None = None

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
        if self.ordering_bound is not None:
            out["ordering_bound"] = self.ordering_bound.value
            out["ordering_exhaustive"] = self.ordering_bound.exhaustive
        return out


def bounds_report(st: SystemTriple, placement=None) -> BoundsReport:
    if st.is_biregular and st.uncached_users >= 1:
        biregular = bound_biregular(st)
        note = None
    else:
        biregular = None
        note = f"K*D/F = {st.uncached_users_exact} is not a positive integer"
    ordering = None
    if placement is not None:
        ordering = bound_generic_max(placement)
    return BoundsReport(
        triple=st,
        biregular_bound=biregular,
        biregular_note=note,
        pda_bound=bound_pda(st),
        cutset_bound=bound_cutset_reported(st),
        cutset_exact=bound_cutset(st),
        ordering_bound=ordering,
    )
