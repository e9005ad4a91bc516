"""Line-graph construction: universes, cliques, covers, validators."""

import dataclasses
import os
import re
import subprocess
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from bruteforce import (
    has_vertex,
    is_compl_square_edge,
    subfile_sum_space,
    verify_vertex_labels,
    vertex_labels,
)
import pgcache
from pgcache import linegraph as linegraph_module
from pgcache.linegraph import (
    CapacityError,
    ConstructionParams,
    DegenerateConstructionError,
    InvariantError,
    build_line_graph,
    build_universe,
    enumerate_transmission_cliques,
    verify_line_graph,
)
from pgcache.subspaces import generating_set_counts, q_binomial


def fano_graph():
    return build_line_graph(build_universe(ConstructionParams(3, 1, 1, 2)))


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------

def test_empty_graph_rejected():
    """m + t = k is refused by the parameters, before any enumeration."""
    for k, m, t, q in [(3, 2, 1, 2), (4, 2, 2, 2)]:
        message = (f"m={m}, t={t}, k={k} caches every subfile at every user, "
                   f"an empty delivery problem: need m + t < k")
        with pytest.raises(DegenerateConstructionError, match=f"^{re.escape(message)}$"):
            ConstructionParams(k, m, t, q)


_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def test_vertex_count_bounds_the_point_tables():
    """With m + t < k, K*D >= q^(k-t+1), so the vertex cap also bounds
    the point tables of GF(q)^(k-t+1) that build_universe fills: every
    construction with k <= 11 and q <= 16."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m = 0
        for q in _PRIME_POWERS:
            for k in range(2, 12):
                for t in range(1, k):
                    for m in range(k - t):
                        cp = ConstructionParams(k, m, t, q)
                        assert q ** (k - t + 1) <= cp.vertex_count, cp


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
    assert cp.users == 7
    assert cp.missing_per_subfile == 4
    assert cp.missing_per_user == 12
    assert cp.subpacketization == 21
    assert cp.vertex_count == 84


# ----------------------------------------------------------------------
# Universe
# ----------------------------------------------------------------------

def test_fano_universe_counts():
    uni = build_universe(ConstructionParams(3, 1, 1, 2))
    assert uni.num_users == 7
    assert len(bf.sum_spaces(uni)) == 7
    assert uni.subpacketization == 21           # all pairs of distinct points
    subfile_sets = list(map(tuple, uni.subfile_array.tolist()))
    assert subfile_sets == sorted(subfile_sets)
    assert len(set(subfile_sets)) == 21


def test_universe_member_counts_match_root_containment():
    uni = build_universe(ConstructionParams(4, 1, 2, 2))
    assert uni.num_users == q_binomial(3, 1, 2) == 7
    spaces = bf.sum_spaces(uni)
    for span_idx, member_ids in enumerate(bf.members(uni)):
        p = spaces[span_idx]
        direct = {i for i, v in enumerate(bf.user_spaces(uni)) if v <= p}
        assert set(member_ids) == direct


def test_universe_against_bruteforce_oracle():
    for q, k, m, t in [(2, 3, 1, 1), (2, 4, 1, 2), (3, 3, 1, 1), (2, 4, 2, 1)]:
        uni = build_universe(ConstructionParams(k, m, t, q))
        oracle = bf.oracle_universe_counts(q, k, m, t)
        assert uni.num_users == oracle["K"]
        assert uni.subpacketization == oracle["total_subfiles"]
        assert len(bf.sum_spaces(uni)) == oracle["num_spans"]
        g = generating_set_counts(q, m, t).subspace_sets
        assert set(oracle["per_span_counts"]) == {g}


def test_per_span_subfile_count_equals_generating_count():
    for cp in [ConstructionParams(5, 2, 1, 2), ConstructionParams(4, 1, 1, 3)]:
        uni = build_universe(cp)
        g = generating_set_counts(cp.q, cp.m, cp.t).subspace_sets
        counts = {}
        for s in bf.subfile_span(uni):
            counts[s] = counts.get(s, 0) + 1
        assert set(counts.values()) == {g}
        assert len(counts) == len(bf.sum_spaces(uni))


def test_subfile_sets_sum_to_their_span():
    uni = build_universe(ConstructionParams(4, 1, 2, 2))
    spaces = bf.sum_spaces(uni)
    for xs, span_idx in zip(uni.subfile_array.tolist(), bf.subfile_span(uni)):
        rows = [row for v in xs for row in uni.user_matrices[v]]
        assert bf.span_of(rows, 4, 2) == spaces[span_idx]


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
    assert {len(users) for users in g.subfile_cliques} == {4}
    assert {len(xs) for xs in g.user_cliques} == {12}
    assert g.params.vertex_count == 84
    # every user misses a subfile iff its space is outside the sum
    spaces = bf.user_spaces(g)
    for x in range(g.subpacketization):
        p = subfile_sum_space(g, x)
        for v in range(g.num_users):
            assert has_vertex(g, v, x) == (not spaces[v] <= p)


@pytest.mark.parametrize("kmtq", [(3, 1, 1, 2), (4, 1, 1, 3), (4, 2, 1, 3)])
def test_user_and_subfile_cliques_are_the_mask_as_arrays(kmtq):
    """user_cliques is the (K, D) and subfile_cliques the (F, c) integer
    array of the outside mask's set positions, row by row."""
    g = build_line_graph(build_universe(ConstructionParams(*kmtq)))
    cp = g.params
    assert g.user_cliques.shape == (cp.users, cp.missing_per_user)
    assert g.subfile_cliques.shape == (cp.subpacketization, cp.missing_per_subfile)
    assert g.user_cliques.dtype.kind == g.subfile_cliques.dtype.kind == "i"
    assert [xs.tolist() for xs in g.user_cliques] == [
        np.flatnonzero(column).tolist() for column in g.outside_mask.T]
    assert [users.tolist() for users in g.subfile_cliques] == [
        np.flatnonzero(row).tolist() for row in g.outside_mask]


def test_the_line_graph_is_the_universe():
    uni = build_universe(ConstructionParams(3, 1, 1, 2))
    assert build_line_graph(uni) is uni
    assert not hasattr(pgcache, "CachingLineGraph")


def test_verify_passes_on_real_constructions():
    for cp in [ConstructionParams(3, 1, 1, 2), ConstructionParams(4, 1, 2, 2)]:
        report = verify_line_graph(build_line_graph(build_universe(cp)))
        assert report.ok, report.violations


def test_verify_flags_moved_vertex():
    g = fano_graph()
    labels = list(vertex_labels(g))
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
    labels = list(vertex_labels(g))[:-1]         # drop one vertex
    report = verify_vertex_labels(labels, g.num_users, g.subpacketization)
    assert not report.user_partition_ok


@lru_cache(maxsize=None)
def graph_of(kmtq):
    return build_line_graph(build_universe(ConstructionParams(*kmtq)))


@settings(max_examples=200, deadline=None)
@given(kmtq=st.sampled_from([(3, 1, 1, 2), (4, 1, 2, 2), (3, 1, 1, 3)]), data=st.data())
def test_mask_report_matches_label_report(kmtq, data):
    """verify_line_graph on a corrupted mask reports, field by field and
    message by message, what verify_vertex_labels reports on its labels."""
    g = graph_of(kmtq)
    mask = g.outside_mask.copy()   # the universe's own mask is read-only
    f, k = mask.shape
    cells = st.tuples(st.integers(0, f - 1), st.integers(0, k - 1))
    for x, u in data.draw(st.lists(cells, max_size=20), label="flipped"):
        mask[x, u] = not mask[x, u]
    for x in data.draw(st.lists(st.integers(0, f - 1), max_size=2), label="cleared rows"):
        mask[x] = False
    for u in data.draw(st.lists(st.integers(0, k - 1), max_size=2), label="cleared columns"):
        mask[:, u] = False
    corrupted = dataclasses.replace(g, outside_mask=mask)
    expected = verify_vertex_labels(vertex_labels(corrupted), g.num_users, g.subpacketization)
    assert verify_line_graph(corrupted) == expected


def test_verify_counts_the_mask_it_is_given():
    """The counts that build_line_graph takes belong to the mask they
    describe: a universe replaced with another mask is counted anew."""
    g = fano_graph()
    assert verify_line_graph(g).ok
    bad = g.outside_mask.copy()
    bad[0] = False      # subfile 0 leaves the line graph
    bad[1:, 6] = False  # and, with row 0 cleared, so does user 6
    replaced = dataclasses.replace(g, outside_mask=bad)
    expected = verify_vertex_labels(vertex_labels(replaced), g.num_users, g.subpacketization)
    assert not expected.ok
    assert verify_line_graph(replaced) == expected
    per_subfile, per_user = replaced.mask_counts
    assert per_subfile.tolist() == bad.sum(axis=1).tolist()
    assert per_user.tolist() == bad.sum(axis=0).tolist()


# ----------------------------------------------------------------------
# Complement-square edges and transmission cliques
# ----------------------------------------------------------------------

def test_compl_square_edge_rules():
    g = fano_graph()
    u0 = 0
    x_a, x_b = g.user_cliques[u0][:2]
    assert not is_compl_square_edge(g, (u0, int(x_a)), (u0, int(x_b)))  # same user
    x = next(x for x in range(g.subpacketization)
             if has_vertex(g, 0, x) and has_vertex(g, 1, x))
    assert not is_compl_square_edge(g, (0, x), (1, x))                  # same subfile
    with pytest.raises(ValueError):
        is_compl_square_edge(g, (0, 99), (1, 0))                        # out of range
    non_vertex = next((v, x) for v in range(7) for x in range(21)
                      if not has_vertex(g, v, x))
    with pytest.raises(ValueError):
        is_compl_square_edge(g, non_vertex, (0, int(g.user_cliques[0][0])))


def test_fano_transmission_cover():
    g = fano_graph()
    cover = enumerate_transmission_cliques(g)
    assert cover.num_cliques == 28
    assert cover.group_size == 3
    # partition: every vertex in exactly one clique
    keys = cover.users * g.subpacketization + cover.subfiles
    assert np.unique(keys).size == keys.size == g.params.vertex_count
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
    assert len(seen) == g.params.vertex_count


@pytest.mark.parametrize("drop", [-1, 10])
def test_clique_lookup_refuses_a_missing_subfile(drop):
    """Without one subfile row, some clique minus a member is no subfile."""
    uni = build_universe(ConstructionParams(3, 1, 1, 2))
    keep = np.arange(uni.subpacketization) != drop % uni.subpacketization
    torn = dataclasses.replace(uni, subfile_array=uni.subfile_array[keep].copy(),
                               outside_mask=uni.outside_mask[keep].copy())
    with pytest.raises(InvariantError, match="^enumerate_transmission_cliques: every "
                                             "clique minus one member is a subfile$"):
        enumerate_transmission_cliques(torn)


def test_cover_counts_on_other_instances():
    for cp in [ConstructionParams(4, 1, 2, 2), ConstructionParams(5, 2, 2, 2)]:
        g = build_line_graph(build_universe(cp))
        cover = enumerate_transmission_cliques(g)
        assert cover.num_cliques * (cp.m + 2) == g.params.vertex_count


def test_degenerate_m0_instance_works_end_to_end():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cp = ConstructionParams(3, 0, 1, 2)
    uni = build_universe(cp)
    g = build_line_graph(uni)
    assert {len(users) for users in g.subfile_cliques} == {cp.users - 1}
    assert verify_line_graph(g).ok
    cover = enumerate_transmission_cliques(g)
    assert cover.group_size == 2
    assert cover.num_cliques * 2 == g.params.vertex_count


# ----------------------------------------------------------------------
# Packed subfile words, their popcount and the extension table
# ----------------------------------------------------------------------

def _universe_quietly(kmtq):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m = 0
        return build_universe(ConstructionParams(*kmtq))


@pytest.mark.parametrize("kmtq", [(3, 1, 1, 2), (6, 3, 2, 2), (4, 2, 1, 3), (4, 1, 1, 4),
                                  (4, 0, 1, 3)])
def test_mask_counts_come_from_the_cached_words(kmtq):
    """The universe packs its mask once: the cached subfile words are
    _bit_words of the mask, with two words per subfile past K = 64 as
    at (4,1,1,4), K = 85, and the mask counts taken from them equal
    count_nonzero over the mask along both axes."""
    uni = _universe_quietly(kmtq)
    mask = uni.outside_mask
    words = uni.subfile_words
    assert words.shape == (-(-uni.num_users // 64), uni.subpacketization)
    assert words is uni.subfile_words
    assert np.array_equal(words, linegraph_module._bit_words(mask))
    per_subfile, per_user = uni.mask_counts
    assert np.array_equal(per_subfile, np.count_nonzero(mask, axis=1))
    assert np.array_equal(per_user, np.count_nonzero(mask, axis=0))


def test_popcount_counts_every_bit():
    """The SWAR popcount against bin(x).count("1") on 0, all ones, each
    single bit and random words, in any array shape."""
    rng = np.random.default_rng(31)
    values = ([0, 2 ** 64 - 1] + [1 << b for b in range(64)]
              + rng.integers(0, 2 ** 64, size=500, dtype=np.uint64).tolist())
    words = np.array(values, dtype=np.uint64)
    got = linegraph_module._popcount(words)
    assert got.tolist() == [bin(x).count("1") for x in values]
    assert np.array_equal(linegraph_module._popcount(words.reshape(-1, 2)),
                          got.reshape(-1, 2))


def _extensions_by_compare(sets, outside):
    """The extension cells by one broadcast compare of every point with
    each set's last point."""
    extends = np.arange(outside.shape[1]) > sets[:, -1:]
    return np.flatnonzero(extends & outside)


@pytest.mark.parametrize("kmtq", [(3, 1, 1, 2), (6, 3, 2, 2), (4, 2, 1, 3), (4, 0, 1, 3)])
def test_extensions_match_the_broadcast_compare(kmtq, monkeypatch):
    """_extensions, gathered from the after-the-last-point table, equals
    the broadcast-compare formula at every level of build_universe and
    for the cliques."""
    real = linegraph_module._extensions
    levels = []

    def checked(sets, outside):
        got = real(sets, outside)
        assert np.array_equal(got, _extensions_by_compare(sets, outside))
        levels.append(sets.shape[1])
        return got

    monkeypatch.setattr(linegraph_module, "_extensions", checked)
    uni = _universe_quietly(kmtq)
    enumerate_transmission_cliques(build_line_graph(uni))
    assert levels == list(range(1, kmtq[1] + 2))


# ----------------------------------------------------------------------
# Point-set enumeration against brute force, and invariants under -O
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kmtq", [(3, 1, 1, 2), (4, 1, 2, 2), (4, 2, 1, 2),
                                  (3, 1, 1, 3), (4, 1, 2, 3), (5, 2, 1, 2)])
def test_subfiles_and_cliques_match_bruteforce(kmtq):
    """Subfiles come in lexicographic order, each mask row holds the users
    outside its subfile's span, and the cliques are the oracle's groups."""
    k, m, t, q = kmtq
    uni = build_universe(ConstructionParams(k, m, t, q))
    cover = enumerate_transmission_cliques(build_line_graph(uni))
    spaces = bf.user_spaces(uni)

    oracle_users, spans = bf.subfile_sets_by_span(q, k, m, t)
    assert set(spaces) == set(oracle_users)
    point = {space: u for u, space in enumerate(spaces)}
    span_of = {tuple(sorted(point[oracle_users[i]] for i in combo)): span
               for span, hits in spans.items() for combo in hits}
    got = [tuple(xs) for xs in uni.subfile_array.tolist()]
    assert got == sorted(span_of)
    for x, xs in enumerate(got):
        assert uni.outside_mask[x].tolist() == [not space <= span_of[xs] for space in spaces]
    got_subfiles = [frozenset(spaces[u] for u in xs) for xs in got]

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
        "from pgcache.subspaces import q_binomial\n"
        "try:\n"
        "    q_binomial(2, 1, 2.5)\n"
        "except lg.InvariantError as exc:\n"
        "    print(exc)\n"
        "from fractions import Fraction\n"
        "from pgcache.compare import ComparisonRow\n"
        "try:\n"
        "    ComparisonRow('bad', 2, Fraction(1, 2), 1, 5, Fraction(1))\n"
        "except lg.InvariantError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 build_universe: 21 independent (m+1)-sets, "
                                  "closed form F = 20"), proc.stdout
    assert "q_binomial: [2 choose 1]_2.5 = 5.25/1.5 is not an integer" in proc.stdout, \
        proc.stdout
    assert "ComparisonRow bad: K(1 - M/N) = 1 != gain * R = 5 * 1" in proc.stdout, proc.stdout
