"""Subspace algebra over GF(q)^k.

Subspaces are carried as reduced-row-echelon bases, which makes the
representation canonical: two `SubspaceBasis` values are equal exactly
when they span the same subspace, and flattening the matrix gives a
total deterministic order.  On top of the canonical form this module
provides sums, containment, enumeration of all d-dimensional superspaces
of a fixed subspace, and the exact counting formulas (q-binomials,
fixed-intersection counts, generating-set counts) that drive the caching
construction.

Vectors are tuples of field elements (ints); see `pgcache.gf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple

from .gf import GF

Vector = tuple[int, ...]


class InvariantError(AssertionError):
    """A step produced output that breaks one of its invariants.

    Raised explicitly, so the checks still run under ``python -O``."""


# ----------------------------------------------------------------------
# Row reduction
# ----------------------------------------------------------------------

def rref(field: GF, rows: Iterable[Vector], width: int) -> tuple[Vector, ...]:
    """Reduced row-echelon form; returns the nonzero rows only."""
    mat = [list(r) for r in rows]
    for r in mat:
        if len(r) != width:
            raise ValueError(f"row width {len(r)} != ambient width {width}")
    rank = 0
    for col in range(width):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = field.inv(mat[rank][col])
        if inv != 1:
            mat[rank] = [field.mul(inv, x) for x in mat[rank]]
        lead = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                c = mat[i][col]
                mat[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(mat[i], lead)]
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rank])


def reduce_vector(field: GF, v: Vector, basis_rows: tuple[Vector, ...]) -> Vector:
    """Reduce v against RREF rows; zero result means v is in the span."""
    v = list(v)
    for row in basis_rows:
        pivot = next(i for i, x in enumerate(row) if x != 0)
        c = v[pivot]
        if c != 0:
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


# ----------------------------------------------------------------------
# Canonical subspaces
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical (RREF) basis of a subspace of GF(q)^k."""

    field: GF
    ambient_dim: int
    rows: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def key(self) -> tuple[int, ...]:
        """Flattened digit sequence; a total order on same-shape bases."""
        return (self.dim,) + tuple(x for row in self.rows for x in row)

    def vectors(self) -> Iterator[Vector]:
        """All q^dim vectors of the subspace (small dims only)."""
        f = self.field
        for coeffs in product(f.elements(), repeat=self.dim):
            acc = [0] * self.ambient_dim
            for c, row in zip(coeffs, self.rows):
                if c:
                    acc = [f.add(a, f.mul(c, x)) for a, x in zip(acc, row)]
            yield tuple(acc)

    def __repr__(self) -> str:
        body = "; ".join("".join(str(x) for x in row) for row in self.rows)
        return f"<{self.dim}-dim of {self.field!r}^{self.ambient_dim}: {body}>"


def canonicalize(field: GF, ambient_dim: int, spanning_rows: Iterable[Vector]) -> SubspaceBasis:
    """RREF basis of the span; idempotent, empty input gives the 0 space."""
    return SubspaceBasis(field, ambient_dim, rref(field, spanning_rows, ambient_dim))


def zero_subspace(field: GF, ambient_dim: int) -> SubspaceBasis:
    return SubspaceBasis(field, ambient_dim, ())


def standard_prefix_subspace(field: GF, ambient_dim: int, dim: int) -> SubspaceBasis:
    """Span of the first `dim` standard basis vectors."""
    if not 0 <= dim <= ambient_dim:
        raise ValueError("dimension out of range")
    rows = tuple(
        tuple(1 if j == i else 0 for j in range(ambient_dim)) for i in range(dim)
    )
    return SubspaceBasis(field, ambient_dim, rows)


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return canonicalize(a.field, a.ambient_dim, a.rows + b.rows)


def contains(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """True when b is a subspace of a."""
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return all(not any(reduce_vector(a.field, row, a.rows)) for row in b.rows)


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------

def _enumerate_rref(field: GF, width: int, dim: int) -> Iterator[tuple[Vector, ...]]:
    """All dim x width RREF matrices over the field, by pivot pattern."""
    if dim == 0:
        yield ()
        return
    if dim > width:
        return
    q = field.q
    for pivots in combinations(range(width), dim):
        free: list[tuple[int, int]] = []
        pivot_set = set(pivots)
        for i in range(dim):
            for j in range(pivots[i] + 1, width):
                if j not in pivot_set:
                    free.append((i, j))
        for values in product(range(q), repeat=len(free)):
            mat = [[0] * width for _ in range(dim)]
            for i, pc in enumerate(pivots):
                mat[i][pc] = 1
            for (i, j), v in zip(free, values):
                mat[i][j] = v
            yield tuple(tuple(r) for r in mat)


def enumerate_superspaces(w: SubspaceBasis, dim: int) -> list[SubspaceBasis]:
    """All dim-dimensional subspaces containing w, sorted canonically.

    Works in the quotient space GF(q)^k / w: superspaces correspond one to
    one to RREF matrices over the non-pivot coordinates of w, so the count
    is [k - dim(w) choose dim - dim(w)]_q without ever listing the full
    Grassmannian.
    """
    if not w.dim <= dim <= w.ambient_dim:
        raise ValueError(f"target dimension {dim} out of range for {w!r}")
    f = w.field
    k = w.ambient_dim
    pivots = [next(i for i, x in enumerate(row) if x != 0) for row in w.rows]
    free_cols = [j for j in range(k) if j not in set(pivots)]
    quotient_dim = len(free_cols)
    out = []
    for qmat in _enumerate_rref(f, quotient_dim, dim - w.dim):
        lifted = []
        for qrow in qmat:
            row = [0] * k
            for col, val in zip(free_cols, qrow):
                row[col] = val
            lifted.append(tuple(row))
        sup = canonicalize(f, k, w.rows + tuple(lifted))
        if sup.dim != dim:
            raise InvariantError(f"enumerate_superspaces: a lifted basis has dim "
                                 f"{sup.dim}, expected {dim}")
        out.append(sup)
    out.sort(key=SubspaceBasis.key)
    expected = q_binomial(k - w.dim, dim - w.dim, f.q)
    if len(out) != expected:
        raise InvariantError(f"enumerate_superspaces: {len(out)} superspaces, "
                             f"closed form {expected}")
    return out


# ----------------------------------------------------------------------
# Exact counts
# ----------------------------------------------------------------------

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


def count_generating_sets(p: SubspaceBasis, w: SubspaceBasis, m: int) -> GeneratingSetCounts:
    """`generating_set_counts` with dimensions read off actual subspaces."""
    if not contains(p, w):
        raise ValueError("w must be a subspace of p")
    if p.dim != w.dim + m + 1:
        raise ValueError(
            f"dim(p)={p.dim} must equal dim(w)+m+1={w.dim + m + 1}"
        )
    return generating_set_counts(p.field.q, m, w.dim + 1)
