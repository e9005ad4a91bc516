"""Baseline formulas, reference tables, rendering, growth sweeps."""

import math
from fractions import Fraction

import pytest

from pgcache.compare import (
    TABLE1_REFERENCE,
    TABLE3_REFERENCE,
    asymptotic_sweep,
    binomial_scheme_params,
    decimal_floor,
    fraction_text,
    magnitude,
    pda_scheme_params,
    subspace_scheme_row,
    table1,
    table3,
)
from pgcache.linegraph import ConstructionParams


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------

def test_pda_baseline_worked_rows():
    row = pda_scheme_params(14, 2)
    assert (row.users, row.subpacketization, row.gain) == (30, 2 ** 14, 15)
    assert row.uncached_fraction == Fraction(1, 2)

    row = pda_scheme_params(6, 73)
    assert row.users == 511 and row.gain == 7
    assert decimal_floor(row.uncached_fraction) == "0.98"

    row = pda_scheme_params(39, 3)
    assert row.users == 120 and row.gain == 40
    assert decimal_floor(row.uncached_fraction) == "0.66"


def test_pda_baseline_rate_is_q_minus_one():
    for m2, q2 in [(3, 2), (5, 4), (7, 9)]:
        row = pda_scheme_params(m2, q2)
        assert row.rate == q2 - 1
        assert row.users * row.uncached_fraction == row.gain * row.rate


def test_pda_baseline_validation():
    with pytest.raises(ValueError):
        pda_scheme_params(0, 4)
    with pytest.raises(ValueError):
        pda_scheme_params(3, 1)


def test_binomial_baseline_worked_rows():
    row = binomial_scheme_params(4, Fraction(1, 2))
    assert (row.gain, row.rate, row.subpacketization) == (3, Fraction(2, 3), 6)

    row = binomial_scheme_params(7, Fraction(3, 7))
    assert (row.gain, row.rate, row.subpacketization) == (4, Fraction(1), 35)

    row = binomial_scheme_params(5, 0)
    assert (row.gain, row.rate, row.subpacketization) == (1, Fraction(5), 1)


def test_binomial_baseline_validation():
    with pytest.raises(ValueError):
        binomial_scheme_params(4, Fraction(1, 3))   # K*M/N not integral
    with pytest.raises(ValueError):
        binomial_scheme_params(4, 1)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def test_decimal_floor_truncates():
    assert decimal_floor(Fraction(16, 31)) == "0.51"
    assert decimal_floor(Fraction(96, 127)) == "0.75"   # reference printed 0.76
    assert decimal_floor(Fraction(3, 4)) == "0.75"
    assert decimal_floor(Fraction(1, 2)) == "0.50"
    assert decimal_floor(Fraction(7, 2), places=0) == "3"
    assert decimal_floor(Fraction(2, 3), places=4) == "0.6666"
    with pytest.raises(ValueError):
        decimal_floor(Fraction(-1, 2))


def test_magnitude_is_exact():
    assert magnitude(1) == 0
    assert magnitude(9999) == 3
    assert magnitude(10 ** 12) == 12
    assert magnitude(22064980) == 7
    with pytest.raises(ValueError):
        magnitude(0)


def test_fraction_text():
    assert fraction_text(Fraction(42)) == "42"
    assert "4/3" in fraction_text(Fraction(4, 3))


# ----------------------------------------------------------------------
# Reference tables
# ----------------------------------------------------------------------

def test_table3_matches_reference_cells():
    for entry in TABLE3_REFERENCE:
        ours = subspace_scheme_row(ConstructionParams(*entry["cp"]))
        base = pda_scheme_params(*entry["baseline"])
        assert (ours.users, base.users) == entry["users"]
        assert (ours.gain, base.gain) == entry["gain"]
        assert (magnitude(ours.subpacketization),
                magnitude(base.subpacketization)) == entry["f_magnitude"]
        # printed fractions mix truncation and rounding at the source, so
        # assert agreement within one unit of the last printed digit
        for got, printed in [(ours.uncached_fraction, entry["uncached"][0]),
                             (base.uncached_fraction, entry["uncached"][1])]:
            assert abs(got - Fraction(printed)) < Fraction(1, 100)


def test_table3_gain_columns_are_structural():
    for entry in TABLE3_REFERENCE:
        k, m, t, q = entry["cp"]
        assert entry["gain"][0] == m + 2
        assert entry["gain"][1] == entry["baseline"][0] + 1


def test_table3_renders():
    t = table3()
    assert len(t.rows) == 7
    text = t.to_text()
    assert "0.51" in text and "10^4" in text
    csv_text = t.to_csv()
    assert csv_text.splitlines()[0].startswith("scheme,baseline")
    assert len(csv_text.splitlines()) == 8


def test_table1_scheme_rows_and_doubling():
    t = table1()
    assert len(t.rows) == 6
    by_triple = {row[:3]: row for row in t.rows}
    row = by_triple[(7, 42, 24)]
    assert row[3:6] == (43, 33, 42)
    assert "28" in row[7] and "56" in row[7]
    assert row[8] == "reference doubles F, D, RF"
    assert by_triple[(15, 50, 30)][7] == "NA"
    # doubled columns: reference F and D are twice the closed forms
    for entry in TABLE1_REFERENCE:
        if entry["cp"] is None:
            continue
        p = ConstructionParams(*entry["cp"])
        k, f, d = entry["triple"]
        assert k == p.users
        assert f == 2 * p.subpacketization
        assert d == 2 * p.missing_per_user
        assert entry["scheme_rf"] == 2 * p.transmissions


# ----------------------------------------------------------------------
# Growth sweeps
# ----------------------------------------------------------------------

def test_sweep_all_checks_pass_for_q2():
    for alpha in (1, 2):
        report = asymptotic_sweep(2, alpha, range(alpha + 1, 13))
        assert report.all_ok
        ks = [r.users for r in report.rows]
        assert ks == sorted(ks)


def test_sweep_checks_pass_for_q3():
    report = asymptotic_sweep(3, 1, range(2, 9))
    assert report.all_ok


def test_sweep_rate_tracks_k_over_log(caplog):
    # R / (K / log_q K) stays within [U/2, 2U] once k-t is large enough
    report = asymptotic_sweep(2, 2, range(6, 16))
    for row in report.rows:
        u = row.uncached_fraction
        ratio = Fraction(row.rate) / (row.users / math.log2(row.users))
        assert u / 2 <= ratio <= 2 * u


def test_sweep_growth_ratio_bounded():
    report = asymptotic_sweep(2, 1, range(3, 21))
    assert all(r.growth_ratio <= 4 for r in report.rows)
    assert report.rows[-1].users > 2 ** 19


def test_sweep_validation():
    with pytest.raises(ValueError):
        asymptotic_sweep(2, 0, range(3, 5))       # alpha = 0 is degenerate
    with pytest.raises(ValueError):
        asymptotic_sweep(2, 3, range(3, 5))       # leaves m = 0


def test_sweep_table_renders():
    report = asymptotic_sweep(2, 1, range(3, 6))
    text = report.to_table().to_text()
    assert "k-t" in text and "True" in text
