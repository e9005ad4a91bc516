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
    term = st.missing_per_user
    terms = [term]
    for j in range(1, r):
        term = _ceil_div(term * (r - j), st.users - j)
        terms.append(term)
    return terms


def bound_pda(st: SystemTriple) -> int:
    """Nested-ceiling bound starting from the average subfile degree.

    T_1 = ceil(DK/F), T_{j+1} = ceil(T_j * (D - j) / (F - j)); D terms in
    total, the last carrying the factor 1/(F - D + 1).
    """
    big_d = st.missing_per_user
    big_f = st.subpacketization
    term = _ceil_div(big_d * st.users, big_f)
    total = term
    for j in range(1, big_d):
        term = _ceil_div(term * (big_d - j), big_f - j)
        total += term
    return total


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


def _row_masks(matrix: np.ndarray, users: Sequence[int],
               subfiles: Sequence[int] | None) -> dict[int, int]:
    masks = {}
    cols = None if subfiles is None else np.asarray(sorted(subfiles))
    for u in users:
        row = matrix[u] if cols is None else matrix[u][cols]
        packed = np.packbits(row.astype(np.uint8), bitorder="little").tobytes()
        masks[u] = int.from_bytes(packed, "little")
    return masks


def _n_prime(matrix: np.ndarray, num_selected_users: int) -> int:
    total_k, total_f = matrix.shape
    degrees = matrix.sum(axis=1)
    if len(set(degrees.tolist())) != 1:
        raise ValueError("placement is not left-regular")
    ku = Fraction(int(total_k) * int(degrees[0]), int(total_f))
    return min(num_selected_users, int(ku))  # floor of K(1-M/N)


def bound_generic_trace(placement, ordering: Sequence[int],
                        users: Sequence[int] | None = None,
                        subfiles: Sequence[int] | None = None,
                        mode: str = "shared") -> OrderingTrace:
    """Ordering bound with the per-step sizes exposed.

    mode "shared": rho_j = subfiles adjacent to every one of the first j
    users (monotone intersections, matching the bi-regular recursion).
    mode "fresh": rho_j = subfiles seen at user j for the first time.
    """
    matrix = placement.matrix if hasattr(placement, "matrix") else np.asarray(placement)
    all_users = range(matrix.shape[0]) if users is None else users
    ordering = tuple(ordering)
    if len(set(ordering)) != len(ordering):
        raise ValueError("ordering repeats a user")
    if not set(ordering) <= set(all_users):
        raise ValueError("ordering contains users outside the selection")
    if mode not in ("shared", "fresh"):
        raise ValueError(f"unknown mode {mode!r}")
    masks = _row_masks(matrix, ordering, subfiles)
    n_prime = _n_prime(matrix, len(all_users))
    rhos: list[int] = []
    cur = None
    seen = 0
    for u in ordering[:n_prime]:
        if mode == "shared":
            cur = masks[u] if cur is None else (cur & masks[u])
            rhos.append(cur.bit_count())
        else:
            rhos.append((masks[u] & ~seen).bit_count())
            seen |= masks[u]
    return OrderingTrace(ordering=ordering[:n_prime], rhos=rhos, n_prime=n_prime)


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
    matrix = placement.matrix if hasattr(placement, "matrix") else np.asarray(placement)
    pool = sorted(range(matrix.shape[0]) if users is None else users)
    masks = _row_masks(matrix, pool, subfiles)
    n_prime = _n_prime(matrix, len(pool))

    if len(pool) <= exhaustive_limit:
        best_val = -1
        best_ord: tuple[int, ...] = ()
        for perm in permutations(pool, n_prime):
            cur = None
            seen = 0
            total = 0
            for u in perm:
                if mode == "shared":
                    cur = masks[u] if cur is None else (cur & masks[u])
                    total += cur.bit_count()
                else:
                    total += (masks[u] & ~seen).bit_count()
                    seen |= masks[u]
            if total > best_val:
                best_val = total
                best_ord = perm
        return OrderingSearchResult(best_val, best_ord, exhaustive=True)

    chosen: list[int] = []
    remaining = list(pool)
    cur = None
    seen = 0
    total = 0
    for _ in range(n_prime):
        best_u = None
        best_gain = -1
        for u in remaining:
            if mode == "shared":
                gain = (masks[u] if cur is None else (cur & masks[u])).bit_count()
            else:
                gain = (masks[u] & ~seen).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_u = u
        chosen.append(best_u)
        remaining.remove(best_u)
        if mode == "shared":
            cur = masks[best_u] if cur is None else (cur & masks[best_u])
        else:
            seen |= masks[best_u]
        total += best_gain
    return OrderingSearchResult(total, tuple(chosen), exhaustive=False)


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
