#!/usr/bin/env python3
"""Tour of the algebra layer: finite fields, canonical subspaces, counts.

Run: python demos/01_fields_and_subspaces.py
"""

from pgcache import (
    canonicalize,
    contains,
    enumerate_superspaces,
    field,
    generating_set_counts,
    q_binomial,
    subspace_sum,
)
from pgcache.subspaces import standard_prefix_subspace, zero_subspace

# ----------------------------------------------------------------------
# Fields: elements are plain ints, tables make the arithmetic fast
# ----------------------------------------------------------------------

f4 = field(4)
print("GF(4) uses modulus coefficients (low to high):", f4.modulus)
print("x * x in GF(4):", f4.mul(2, 2), "(encodes x + 1)")
print("inverses in GF(7):", [field(7).inv(a) for a in range(1, 7)])

f9 = field(9)
print("GF(9) multiplication table corner:")
for a in range(4):
    print([f9.mul(a, b) for b in range(4)])

# ----------------------------------------------------------------------
# Subspaces: reduced-row-echelon bases are canonical names
# ----------------------------------------------------------------------

f2 = field(2)
span_a = canonicalize(f2, 3, [(1, 1, 0), (0, 1, 1)])
span_b = canonicalize(f2, 3, [(1, 0, 1), (1, 1, 0), (0, 1, 1)])  # same plane
print("\ntwo spanning sets, one canonical basis:", span_a == span_b)
print("basis rows:", span_a.rows)

line = canonicalize(f2, 3, [(1, 1, 1)])
print("plane contains the diagonal line:", contains(span_a, line))
print("line + plane =", subspace_sum(span_a, line).dim, "dimensional")

# ----------------------------------------------------------------------
# Counting: q-binomials vs explicit enumeration
# ----------------------------------------------------------------------

zero = zero_subspace(f2, 3)
points = enumerate_superspaces(zero, 1)
print("\npoints of the projective plane over GF(2):", len(points),
      "= [3 choose 1]_2 =", q_binomial(3, 1, 2))

w = standard_prefix_subspace(f2, 4, 1)
planes_over_w = enumerate_superspaces(w, 2)
print("2-dim spaces over a fixed line in GF(2)^4:", len(planes_over_w),
      "= [3 choose 1]_2 =", q_binomial(3, 1, 2))

g = generating_set_counts(2, 1, 1)
print("\npairs of points spanning a fixed plane (q=2, m=1, t=1):",
      g.subspace_sets)
g2 = generating_set_counts(2, 3, 2)
print("4-sets of 2-spaces spanning a fixed 5-space over a line:",
      g2.subspace_sets)
