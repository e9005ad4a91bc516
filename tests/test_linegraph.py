"""Line-graph construction: universes, cliques, covers, validators."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bruteforce as bf
from pgcache.linegraph import (
    CapacityError,
    ConstructionParams,
    DegenerateConstructionError,
    build_line_graph,
    build_universe,
    enumerate_transmission_cliques,
    is_compl_square_edge,
    verify_line_graph,
    verify_vertex_labels,
)
from pgcache.subspaces import contains, generating_set_counts, q_binomial


def fano_graph():
    return build_line_graph(build_universe(ConstructionParams(3, 1, 1, 2)))


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams(2, 2, 2, 2)   # m + t > k
    with pytest.raises(ValueError):
        ConstructionParams(3, 1, 0, 2)   # t < 1
    with pytest.raises(ValueError):
        ConstructionParams(3, 1, 1, 6)   # q not a prime power
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ConstructionParams(3, 0, 1, 2)
    assert any("degenerate" in str(w.message) for w in caught)


def test_closed_forms_on_fano():
    cp = ConstructionParams(3, 1, 1, 2)
    assert cp.num_users == 7
    assert cp.subfile_clique_size == 4
    assert cp.user_clique_size == 12
    assert cp.subpacketization == 21
    assert cp.vertex_count == 84


# ----------------------------------------------------------------------
# Universe
# ----------------------------------------------------------------------

def test_fano_universe_counts():
    uni = build_universe(ConstructionParams(3, 1, 1, 2))
    assert uni.num_users == 7
    assert len(uni.sum_spaces) == 7
    assert uni.subpacketization == 21           # all pairs of distinct points
    assert uni.subfile_sets == sorted(uni.subfile_sets)
    assert len(set(uni.subfile_sets)) == 21


def test_universe_member_counts_match_root_containment():
    uni = build_universe(ConstructionParams(4, 1, 2, 2))
    assert uni.num_users == q_binomial(3, 1, 2) == 7
    for span_idx, member_ids in enumerate(uni.members):
        p = uni.sum_spaces[span_idx]
        direct = {i for i, v in enumerate(uni.user_spaces) if contains(p, v)}
        assert set(member_ids) == direct


def test_universe_against_bruteforce_oracle():
    for q, k, m, t in [(2, 3, 1, 1), (2, 4, 1, 2), (3, 3, 1, 1), (2, 4, 2, 1)]:
        uni = build_universe(ConstructionParams(k, m, t, q))
        oracle = bf.oracle_universe_counts(q, k, m, t)
        assert uni.num_users == oracle["K"]
        assert uni.subpacketization == oracle["total_subfiles"]
        assert len(uni.sum_spaces) == oracle["num_spans"]
        g = generating_set_counts(q, m, t).subspace_sets
        assert set(oracle["per_span_counts"]) == {g}


def test_per_span_subfile_count_equals_generating_count():
    for cp in [ConstructionParams(5, 2, 1, 2), ConstructionParams(4, 1, 1, 3)]:
        uni = build_universe(cp)
        g = generating_set_counts(cp.q, cp.m, cp.t).subspace_sets
        counts = {}
        for s in uni.subfile_span:
            counts[s] = counts.get(s, 0) + 1
        assert set(counts.values()) == {g}
        assert len(counts) == len(uni.sum_spaces)


def test_subfile_sets_sum_to_their_span():
    uni = build_universe(ConstructionParams(4, 1, 2, 2))
    from pgcache.subspaces import canonicalize
    f = uni.params.field
    for xs, span_idx in zip(uni.subfile_sets, uni.subfile_span):
        rows = []
        for v in xs:
            rows.extend(uni.user_spaces[v].rows)
        assert canonicalize(f, 4, rows) == uni.sum_spaces[span_idx]


def test_capacity_cap_reports_prediction():
    with pytest.raises(CapacityError) as err:
        build_universe(ConstructionParams(6, 3, 2, 2), max_vertices=1000)
    msg = str(err.value)
    assert "416640" in msg and "F=26040" in msg


# ----------------------------------------------------------------------
# Line graph
# ----------------------------------------------------------------------

def test_fano_line_graph_sizes():
    g = fano_graph()
    assert g.subfile_clique_size == 4
    assert g.user_clique_size == 12
    assert g.vertex_count == 84
    # every user misses a subfile iff its space is outside the sum
    for x, users in enumerate(g.subfile_cliques):
        p = g.universe.subfile_sum_space(x)
        for v in range(g.num_users):
            assert g.has_vertex(v, x) == (not contains(p, g.universe.user_spaces[v]))


def test_empty_graph_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        uni = build_universe(ConstructionParams(3, 2, 1, 2))  # m + t = k
    with pytest.raises(DegenerateConstructionError):
        build_line_graph(uni)


def test_verify_passes_on_real_constructions():
    for cp in [ConstructionParams(3, 1, 1, 2), ConstructionParams(4, 1, 2, 2)]:
        report = verify_line_graph(build_line_graph(build_universe(cp)))
        assert report.ok, report.violations


def test_verify_flags_moved_vertex():
    g = fano_graph()
    labels = list(g.vertex_labels())
    # move one vertex into a subfile clique that already holds its user
    (u0, x0) = labels[0]
    x1 = next(x for (u, x) in labels if u == u0 and x != x0)
    labels[0] = (u0, x1)
    report = verify_vertex_labels(labels, g.num_users, g.subpacketization)
    assert not report.ok
    assert not report.subfile_clique_ok          # condition (iii)
    assert any("(iii)" in v for v in report.violations)


def test_verify_flags_unequal_user_cliques():
    g = fano_graph()
    labels = list(g.vertex_labels())[:-1]        # drop one vertex
    report = verify_vertex_labels(labels, g.num_users, g.subpacketization)
    assert not report.user_partition_ok


# ----------------------------------------------------------------------
# Complement-square edges and transmission cliques
# ----------------------------------------------------------------------

def test_compl_square_edge_rules():
    g = fano_graph()
    u0 = 0
    x_a, x_b = g.user_cliques[u0][:2]
    assert not is_compl_square_edge(g, (u0, int(x_a)), (u0, int(x_b)))  # same user
    x = next(x for x in range(g.subpacketization)
             if g.has_vertex(0, x) and g.has_vertex(1, x))
    assert not is_compl_square_edge(g, (0, x), (1, x))                  # same subfile
    with pytest.raises(ValueError):
        is_compl_square_edge(g, (0, 99), (1, 0))                        # out of range
    non_vertex = next((v, x) for v in range(7) for x in range(21)
                      if not g.has_vertex(v, x))
    with pytest.raises(ValueError):
        is_compl_square_edge(g, non_vertex, (0, int(g.user_cliques[0][0])))


def test_fano_transmission_cover():
    g = fano_graph()
    cover = enumerate_transmission_cliques(g)
    assert cover.num_cliques == 28
    assert cover.group_size == 3
    # partition: every vertex in exactly one clique
    assert int((cover.clique_of >= 0).sum()) == g.vertex_count
    seen = set()
    for i in range(cover.num_cliques):
        members = cover.clique(i)
        assert len(members) == 3
        for pair in members:
            assert pair not in seen
            seen.add(pair)
        # pairwise complement-square adjacency
        for a in range(3):
            for b in range(a + 1, 3):
                assert is_compl_square_edge(g, members[a], members[b])
    assert len(seen) == g.vertex_count


def test_cover_counts_on_other_instances():
    for cp in [ConstructionParams(4, 1, 2, 2), ConstructionParams(5, 2, 2, 2)]:
        g = build_line_graph(build_universe(cp))
        cover = enumerate_transmission_cliques(g)
        assert cover.num_cliques * (cp.m + 2) == g.vertex_count


def test_degenerate_m0_instance_works_end_to_end():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cp = ConstructionParams(3, 0, 1, 2)
    uni = build_universe(cp)
    g = build_line_graph(uni)
    assert g.subfile_clique_size == cp.num_users - 1
    assert verify_line_graph(g).ok
    cover = enumerate_transmission_cliques(g)
    assert cover.group_size == 2
    assert cover.num_cliques * 2 == g.vertex_count


# ----------------------------------------------------------------------
# Point-set enumeration against brute force, and invariants under -O
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kmtq", [(3, 1, 1, 2), (4, 1, 2, 2), (4, 2, 1, 2),
                                  (3, 1, 1, 3), (4, 1, 2, 3)])
def test_subfiles_and_cliques_match_bruteforce(kmtq):
    k, m, t, q = kmtq
    uni = build_universe(ConstructionParams(k, m, t, q))
    cover = enumerate_transmission_cliques(build_line_graph(uni))
    spaces = [bf.span_of(uni.user_spaces[u].rows, k, q) for u in range(uni.num_users)]

    oracle_users, spans = bf.subfile_sets_by_span(q, k, m, t)
    assert set(spaces) == set(oracle_users)
    want_subfiles = {frozenset(oracle_users[i] for i in combo)
                     for hits in spans.values() for combo in hits}
    got_subfiles = [frozenset(spaces[u] for u in xs) for xs in uni.subfile_sets]
    assert len(set(got_subfiles)) == len(got_subfiles)
    assert set(got_subfiles) == want_subfiles

    _, groups = bf.transmission_groups(q, k, m, t)
    got_groups = set()
    for i in range(cover.num_cliques):
        members = cover.clique(i)
        group = frozenset(spaces[u] for u, _ in members)
        for u, x in members:   # each member's subfile is the group minus it
            assert got_subfiles[x] == group - {spaces[u]}
        got_groups.add(group)
    assert cover.num_cliques == len(got_groups)
    assert got_groups == set(groups)


def test_invariants_are_checked_under_optimize():
    script = (
        "import sys\n"
        "import pgcache.linegraph as lg\n"
        "from pgcache import build_scheme\n"
        "lg.ConstructionParams.subpacketization = property(lambda self: 20)\n"
        "try:\n"
        "    build_scheme(lg.ConstructionParams(3, 1, 1, 2))\n"
        "except lg.InvariantError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 build_universe: 21 independent (m+1)-sets, "
                                  "closed form F = 20"), proc.stdout
