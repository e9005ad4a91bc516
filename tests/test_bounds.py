"""Lower bounds: reference-table values, recursions, ordering bound."""

from fractions import Fraction
from itertools import permutations
from math import gcd, perm

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hst

from pgcache.bounds import (
    SystemTriple,
    bound_pda,
    bound_cutset,
    bound_cutset_reported,
    bound_generic,
    bound_generic_max,
    bound_generic_trace,
    bound_biregular,
    bounds_report,
    biregular_bound_terms,
)
from pgcache.linegraph import ConstructionParams
from pgcache.scheme import build_scheme

# Reference lower-bound table: (K, F, D) -> (biregular, pda, cutset-as-printed)
REFERENCE_ROWS = [
    ((15, 50, 30), (71, 54, 65)),
    ((24, 54, 36), (109, 90, 96)),
    ((15, 20, 12), (30, 31, 26)),
    ((7, 42, 24), (43, 33, 42)),
    ((15, 210, 168), (637, 444, 630)),
    ((13, 156, 108), (285, 193, 280)),
]

# Exact cutset values for the same rows.
CUTSET_EXACT = [Fraction(450, 7), Fraction(96), Fraction(180, 7),
                Fraction(42), Fraction(630), Fraction(1404, 5)]


@pytest.mark.parametrize("triple,expected", REFERENCE_ROWS)
def test_biregular_and_pda_bounds_match_reference(triple, expected):
    st = SystemTriple(*triple)
    assert bound_biregular(st) == expected[0]
    assert bound_pda(st) == expected[1]


@pytest.mark.parametrize("triple,exact",
                         list(zip([r[0] for r in REFERENCE_ROWS], CUTSET_EXACT)))
def test_cutset_exact_values(triple, exact):
    assert bound_cutset(SystemTriple(*triple)) == exact


def test_cutset_reported_is_the_ceiling():
    # The printed reference column takes the ceiling on every fractional
    # row except (13, 156, 108), where it shows the floor of 1404/5.
    reported = [bound_cutset_reported(SystemTriple(*r[0])) for r in REFERENCE_ROWS]
    assert reported == [65, 96, 26, 42, 630, 281]
    printed = [r[1][2] for r in REFERENCE_ROWS]
    for got, ref, exact in zip(reported, printed, CUTSET_EXACT):
        assert abs(ref - exact) < 1        # printed cell is exact to +-1
        assert got == ref or (got == ref + 1 and exact < got)


def test_biregular_term_structure():
    st = SystemTriple(7, 42, 24)
    terms = biregular_bound_terms(st)
    assert terms == [24, 12, 5, 2]
    assert len(terms) == st.uncached_users
    # removing the ceilings can only lower the sum
    r = st.uncached_users
    loose = Fraction(st.missing_per_user)
    total = loose
    for j in range(1, r):
        loose = loose * (r - j) / (st.users - j)
        total += loose
    assert total <= sum(terms)


def test_biregular_rejects_non_biregular():
    with pytest.raises(ValueError):
        bound_biregular(SystemTriple(7, 42, 23))
    st = SystemTriple(7, 42, 23)
    assert not st.is_biregular
    rep = bounds_report(st)
    assert rep.biregular_bound is None
    assert "not a positive integer" in rep.biregular_note
    assert rep.pda_bound > 0


def test_bounds_report_reference_rows():
    assert_rows = [
        ((15, 50, 30), (71, 54, 65)),
        ((24, 54, 36), (109, 90, 96)),
        ((15, 20, 12), (30, 31, 26)),
    ]
    for triple, expected in assert_rows:
        rep = bounds_report(SystemTriple(*triple))
        assert (rep.biregular_bound, rep.pda_bound, rep.cutset_bound) == expected
        d = rep.as_dict()
        assert d["biregular_bound"] == expected[0]


def test_triple_validation():
    with pytest.raises(ValueError):
        SystemTriple(0, 10, 5)
    with pytest.raises(ValueError):
        SystemTriple(5, 10, 0)
    with pytest.raises(ValueError):
        SystemTriple(5, 10, 11)


# ----------------------------------------------------------------------
# Ordering bound on explicit placements
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fano_placement():
    return build_scheme(ConstructionParams(3, 1, 1, 2)).placement


def test_ordering_bound_edge_cases(fano_placement):
    assert bound_generic(fano_placement, []) == 0
    assert bound_generic(fano_placement, [0]) == 12     # first term is the degree
    with pytest.raises(ValueError):
        bound_generic(fano_placement, [0, 0])


def test_ordering_refuses_a_placement_that_is_not_left_regular():
    matrix = np.array([[1, 1, 0], [1, 0, 0]], dtype=bool)
    with pytest.raises(ValueError, match="placement is not left-regular"):
        bound_generic(matrix, [0])


@pytest.mark.parametrize("user", [7, -1])
def test_ordering_refuses_users_outside_the_placement(fano_placement, user):
    """The 7 x 21 placement has users 0..6; a negative id would otherwise
    wrap to the last row."""
    with pytest.raises(ValueError, match=f"user {user} is outside"):
        bound_generic(fano_placement, [0, user])
    with pytest.raises(ValueError, match=f"user {user} is outside"):
        bound_generic_trace(fano_placement, [user])


def test_ordering_bound_truncates_at_n_prime(fano_placement):
    # K(1-M/N) = 4 for the Fano placement, so only four terms count
    trace = bound_generic_trace(fano_placement, list(range(7)))
    assert trace.n_prime == 4
    assert len(trace.rhos) == 4
    assert trace.rhos[0] == 12


def test_fano_exhaustive_ordering_values(fano_placement):
    shared = bound_generic_max(fano_placement)
    assert shared.exhaustive
    assert shared.value == 24            # 12 + 6 + 3 + 3, frozen by full search
    assert shared.ordering == (0, 1, 3, 6)
    greedy = bound_generic_max(fano_placement, exhaustive_limit=2)
    assert not greedy.exhaustive
    assert greedy.value == 24            # greedy reaches the optimum here


def test_shared_mode_dominates_biregular_bound(fano_placement):
    st = SystemTriple(7, 21, 12)
    assert bound_biregular(st) == 22
    assert bound_generic_max(fano_placement).value >= 22


def test_ordering_bound_consistency_on_constructions():
    for cp in [ConstructionParams(4, 1, 2, 2), ConstructionParams(5, 2, 2, 2)]:
        inst = build_scheme(cp)
        p = inst.params
        st = SystemTriple(p.users, p.subpacketization, p.missing_per_user)
        search = bound_generic_max(inst.placement)
        assert search.value >= bound_biregular(st)
        # achievability: the scheme's transmission count beats every bound
        rf = p.transmissions
        assert rf >= bound_biregular(st)
        assert rf >= bound_pda(st)
        assert rf >= bound_cutset(st)
        assert rf >= search.value


def test_scheme_rf_exceeds_reference_bounds():
    # rows of the reference table that the construction actually achieves
    for triple, cp in [((7, 42, 24), ConstructionParams(3, 1, 1, 2)),
                       ((15, 210, 168), ConstructionParams(4, 1, 1, 2)),
                       ((13, 156, 108), ConstructionParams(3, 1, 1, 3))]:
        st = SystemTriple(*triple)
        rf_doubled = 2 * cp.transmissions  # reference scale
        assert rf_doubled >= bound_biregular(st)
        assert rf_doubled >= bound_pda(st)
        assert rf_doubled >= bound_cutset(st)


# ----------------------------------------------------------------------
# Reference: the ordering loops and nested ceilings as first written, one
# loop per search, kept to check the walker against.
# ----------------------------------------------------------------------

def _ceil_div(a, b):
    return -(-a // b)


def _reference_biregular_terms(st):
    r = st.uncached_users
    term = st.missing_per_user
    terms = [term]
    for j in range(1, r):
        term = _ceil_div(term * (r - j), st.users - j)
        terms.append(term)
    return terms


def _reference_pda(st):
    big_d = st.missing_per_user
    big_f = st.subpacketization
    term = _ceil_div(big_d * st.users, big_f)
    total = term
    for j in range(1, big_d):
        term = _ceil_div(term * (big_d - j), big_f - j)
        total += term
    return total


def _reference_masks(matrix):
    masks = []
    for row in matrix:
        packed = np.packbits(row.astype(np.uint8), bitorder="little").tobytes()
        masks.append(int.from_bytes(packed, "little"))
    return masks


def _reference_n_prime(matrix):
    total_k, total_f = matrix.shape
    degrees = matrix.sum(axis=1)
    if len(set(degrees.tolist())) != 1:
        raise ValueError("placement is not left-regular")
    return int(Fraction(int(total_k) * int(degrees[0]), int(total_f)))


def _reference_trace(matrix, ordering):
    """(ordering, rhos, n_prime) of bound_generic_trace."""
    ordering = tuple(ordering)
    masks = _reference_masks(matrix)
    n_prime = _reference_n_prime(matrix)
    rhos = []
    cur = None
    for u in ordering[:n_prime]:
        cur = masks[u] if cur is None else (cur & masks[u])
        rhos.append(cur.bit_count())
    return ordering[:n_prime], rhos, n_prime


def _reference_max(matrix, exhaustive_limit):
    """(value, ordering, exhaustive) of bound_generic_max."""
    pool = list(range(matrix.shape[0]))
    masks = _reference_masks(matrix)
    n_prime = _reference_n_prime(matrix)
    if len(pool) <= exhaustive_limit:
        best_val = -1
        best_ord = ()
        for order in permutations(pool, n_prime):
            cur = None
            total = 0
            for u in order:
                cur = masks[u] if cur is None else (cur & masks[u])
                total += cur.bit_count()
            if total > best_val:
                best_val = total
                best_ord = order
        return best_val, best_ord, True
    chosen = []
    remaining = list(pool)
    cur = None
    total = 0
    for _ in range(n_prime):
        best_u = None
        best_gain = -1
        for u in remaining:
            gain = (masks[u] if cur is None else (cur & masks[u])).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_u = u
        chosen.append(best_u)
        remaining.remove(best_u)
        cur = masks[best_u] if cur is None else (cur & masks[best_u])
        total += best_gain
    return total, tuple(chosen), False


@hst.composite
def _left_regular_placements(draw):
    """A random K x F 0/1 placement with equal row sums, K <= 9, F <= 24."""
    k = draw(hst.integers(1, 9))
    f = draw(hst.integers(1, 24))
    degree = draw(hst.integers(0, f))
    matrix = np.zeros((k, f), dtype=bool)
    for u in range(k):
        matrix[u, draw(hst.permutations(range(f)))[:degree]] = True
    return matrix


@settings(max_examples=300, deadline=None)
@given(matrix=_left_regular_placements(), data=hst.data())
def test_ordering_walker_matches_reference_loops(matrix, data):
    k = matrix.shape[0]
    ordering = data.draw(hst.permutations(range(k)), "ordering")
    ordering = ordering[:data.draw(hst.integers(0, k), "length")]
    trace = bound_generic_trace(matrix, ordering)
    assert (trace.ordering, trace.rhos, trace.n_prime) == _reference_trace(matrix, ordering)

    # Below K the search is greedy, at or above it exhaustive.
    limit = data.draw(hst.integers(max(0, k - 2), k + 1), "limit")
    # keeps each exhaustive search at most P(9, 4) orderings long
    assume(k > limit or perm(k, trace.n_prime) <= 3024)
    got = bound_generic_max(matrix, exhaustive_limit=limit)
    assert (got.value, got.ordering, got.exhaustive) == _reference_max(matrix, limit)


@given(users=hst.integers(1, 60), data=hst.data())
def test_nested_ceilings_match_reference_loops(users, data):
    # Every bi-regular triple has D/F = r/K for some 1 <= r <= K.
    r = data.draw(hst.integers(1, users), "r")
    scale = data.draw(hst.integers(1, 20), "scale")
    g = gcd(users, r)
    triple = SystemTriple(users, users // g * scale, r // g * scale)
    assert triple.uncached_users == r
    assert biregular_bound_terms(triple) == _reference_biregular_terms(triple)
    assert bound_pda(triple) == _reference_pda(triple)
