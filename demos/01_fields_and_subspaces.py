#!/usr/bin/env python3
"""Tour of the algebra the construction uses: field tables, projective
points as integer codes, and the closed-form counts.

Run: python demos/01_fields_and_subspaces.py
"""

import numpy as np

from pgcache import (
    ConstructionParams,
    build_universe,
    field,
    generating_set_counts,
    q_binomial,
)

# ----------------------------------------------------------------------
# Fields: elements are plain ints, log/antilog tables multiply arrays
# ----------------------------------------------------------------------

f4 = field(4)
print("GF(4) uses modulus coefficients (low to high):", f4.modulus)
print("x * x in GF(4):", f4.mul_array(2, 2), "(encodes x + 1)")

f7 = field(7)
nonzero = np.arange(1, 7)
products = f7.mul_array(nonzero[:, None], nonzero[None, :])
print("inverses in GF(7):", nonzero[np.argmax(products == 1, axis=1)].tolist())

f9 = field(9)
corner = np.arange(4)
print("GF(9) multiplication table corner:")
print(f9.mul_array(corner[:, None], corner[None, :]))

# ----------------------------------------------------------------------
# Points: a user of (k, m, t, q) is a point of PG(k-t, q), held as one
# radix-q code of its normalized vector (first nonzero coordinate 1)
# ----------------------------------------------------------------------

uni = build_universe(ConstructionParams(3, 1, 1, 2))
print("\npoints of the projective plane over GF(2):", len(uni.points),
      "= [3 choose 1]_2 =", q_binomial(3, 1, 2))
for code in uni.points.tolist():
    print(f"  code {code}: vector {np.binary_repr(code, width=3)}")
print("subfiles (pairs of points, each pair spans a line):",
      uni.subpacketization, "=", q_binomial(3, 2, 2), "lines x",
      generating_set_counts(2, 1, 1).subspace_sets, "pairs per line")

# ----------------------------------------------------------------------
# Counting: closed forms behind the construction's invariant checks
# ----------------------------------------------------------------------

print("\n2-dim spaces over a fixed line in GF(2)^4: [3 choose 1]_2 =",
      q_binomial(3, 1, 2))
g = generating_set_counts(2, 1, 1)
print("pairs of points spanning a fixed plane (q=2, m=1, t=1):",
      g.subspace_sets)
g2 = generating_set_counts(2, 3, 2)
print("4-sets of 2-spaces spanning a fixed 5-space over a line:",
      g2.subspace_sets)
