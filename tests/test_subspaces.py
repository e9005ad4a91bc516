"""Closed-form subspace counts against the element-set brute-force oracle."""

import pytest

import bruteforce as bf
from pgcache.subspaces import count_intersecting, generating_set_counts, q_binomial


# ----------------------------------------------------------------------
# q-binomials
# ----------------------------------------------------------------------

def test_q_binomial_worked_values():
    assert q_binomial(3, 1, 2) == 7
    assert q_binomial(4, 2, 2) == 35     # brute-force count frozen below
    assert q_binomial(5, 0, 3) == 1
    assert q_binomial(2, 3, 2) == 0


def test_q_binomial_matches_subspace_counts():
    for q in (2, 3):
        for k in range(1, 5):
            for d in range(0, k + 1):
                assert q_binomial(k, d, q) == bf.count_subspaces(q, k, d)


def test_q_binomial_symmetry():
    for q in (2, 3, 4, 5):
        for a in range(0, 10):
            for b in range(0, a + 1):
                assert q_binomial(a, b, q) == q_binomial(a, a - b, q)


def test_q_binomial_power_sandwich():
    # q^((a-b)b) <= [a b]_q <= q^((a-b+1)b)
    for q in (2, 3, 4, 5):
        for a in range(0, 13):
            for b in range(0, a + 1):
                val = q_binomial(a, b, q)
                assert q ** ((a - b) * b) <= val <= q ** ((a - b + 1) * b)


def test_q_binomial_rejects_negatives():
    with pytest.raises(ValueError):
        q_binomial(-1, 0, 2)
    with pytest.raises(ValueError):
        q_binomial(3, -2, 2)
    with pytest.raises(ValueError):
        q_binomial(3, 1, 1)


# ----------------------------------------------------------------------
# Fixed-intersection counts
# ----------------------------------------------------------------------

def test_count_intersecting_fixed_worked_values():
    # 1-dim spaces meeting a fixed plane of GF(2)^3 exactly in a fixed
    # line: only the line itself.
    assert count_intersecting(3, 1, 2, 1, 2) == 1
    assert count_intersecting(4, 2, 2, 1, 2) == 6  # 2 * [2 1]_2, oracle below
    # r = s = l: the fixed subspace is the only candidate
    assert count_intersecting(5, 2, 2, 2, 3) == 1


def test_count_intersecting_matches_oracle():
    for q in (2, 3):
        for k in (2, 3, 4):
            for s_dim in range(1, k):
                s_space = bf.span_of(
                    [tuple(1 if j == i else 0 for j in range(k)) for i in range(s_dim)],
                    k, q)
                for r in range(1, k):
                    for l in range(0, min(r, s_dim) + 1):
                        l_space = bf.span_of(
                            [tuple(1 if j == i else 0 for j in range(k)) for i in range(l)],
                            k, q)
                        got = count_intersecting(k, r, s_dim, l, q)
                        want = bf.count_meeting_exactly(q, k, r, s_space, l_space)
                        assert got == want, (k, r, s_dim, l, q)


def test_count_intersecting_validation():
    with pytest.raises(ValueError):
        count_intersecting(3, 3, 2, 1, 2)   # r must stay below k
    with pytest.raises(ValueError):
        count_intersecting(3, 1, 2, 2, 2)   # l above min(r, s)


# ----------------------------------------------------------------------
# Generating-set counts
# ----------------------------------------------------------------------

def test_generating_counts_worked_values():
    assert generating_set_counts(2, 1, 1).subspace_sets == 3     # Fano planes
    assert generating_set_counts(2, 1, 2).subspace_sets == 3     # oracle below
    assert generating_set_counts(2, 0, 1).subspace_sets == 1
    assert generating_set_counts(2, 3, 2).subspace_sets == 840
    g = generating_set_counts(3, 1, 2)
    assert g.vector_sets == g.subspace_sets * 3 ** 2


def test_generating_counts_match_oracle():
    cases = [(2, 3, 1, 1), (2, 4, 1, 2), (2, 4, 2, 1), (3, 3, 1, 1), (3, 4, 1, 2)]
    for q, k, m, t in cases:
        _, spans = bf.subfile_sets_by_span(q, k, m, t)
        per_span = {len(hits) for hits in spans.values()}
        assert per_span == {generating_set_counts(q, m, t).subspace_sets}, (q, k, m, t)

