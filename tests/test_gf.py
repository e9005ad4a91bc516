"""Field arithmetic: exhaustive law checks for every order up to 64."""

import hashlib
import time

import numpy as np
import pytest

from pgcache.gf import GF, MAX_ORDER, _PRIME_TEST_LIMIT, factor_prime_power, field, is_prime
from pgcache.linegraph import _Points


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


PRIME_POWERS_64 = _prime_powers(64)


def add_table(f):
    """The q x q addition table of f, as the line graph adds point codes."""
    idx = np.arange(f.q)
    return _Points(f, 1).add(idx[:, None], idx[None, :])


def mul_table(f):
    """The q x q multiplication table of f."""
    idx = np.arange(f.q)
    return f.mul_array(idx[:, None], idx[None, :])


def element_order(f, a):
    """Multiplicative order of a nonzero element of f."""
    order, val = 1, a
    while val != 1:
        val = int(f.mul_array(val, a))
        order += 1
    return order


def test_prime_power_list_is_the_expected_one():
    assert PRIME_POWERS_64 == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
                               27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def test_prime_powers_factor_against_trial_division():
    def trial(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        n = 0
        while q % p == 0:
            q //= p
            n += 1
        return (p, n) if q == 1 else None

    for q in range(2, 3000):
        try:
            got = factor_prime_power(q)
        except ValueError:
            got = None
        assert got == trial(q), q


def test_large_orders_factor_quickly():
    mersenne_31, mersenne_61 = 2 ** 31 - 1, 2 ** 61 - 1
    start = time.perf_counter()
    assert factor_prime_power(mersenne_61) == (mersenne_61, 1)
    assert factor_prime_power(mersenne_31 ** 2) == (mersenne_31, 2)
    assert factor_prime_power(3 ** 45) == (3, 45)
    with pytest.raises(ValueError, match="not a prime power"):
        factor_prime_power(mersenne_61 * 8191)
    with pytest.raises(ValueError, match="not a prime power"):
        factor_prime_power(mersenne_31 ** 2 * 2)
    with pytest.raises(ValueError, match="too large"):
        factor_prime_power(2 ** 89 - 1)   # prime, above the exact test's limit
    assert time.perf_counter() - start < 1.0


def test_is_prime_at_its_limits():
    assert not is_prime(0) and not is_prime(1)
    assert is_prime(2) and is_prime(2 ** 61 - 1)
    with pytest.raises(ValueError, match="too large to test for primality"):
        is_prime(_PRIME_TEST_LIMIT)


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_field_laws_exhaustive(q):
    f = field(q)
    add = add_table(f)
    mul = mul_table(f)
    idx = np.arange(q)
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]

    # commutativity and identities
    assert (add == add.T).all()
    assert (mul == mul.T).all()
    assert (add[0] == idx).all()
    assert (mul[1] == idx).all()
    assert (mul[0] == 0).all()
    # associativity and distributivity on all q^3 triples
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    # inverses: one negative per element, one reciprocal per nonzero element
    assert ((add == 0).sum(axis=1) == 1).all()
    assert ((mul[1:] == 1).sum(axis=1) == 1).all()


def _reference_code_sum(a: int, b: int, p: int, digits: int) -> int:
    """The sum of two codes of GF(q)^n, written out one base-p digit at a time."""
    total, weight = 0, 1
    for _ in range(digits):
        total += (a // weight % p + b // weight % p) % p * weight
        weight *= p
    return total


@pytest.mark.parametrize("q,n", [(q, n) for q in PRIME_POWERS_64 for n in (1, 2, 3)]
                         + [(257, 1), (257, 2)])
def test_point_code_sums_match_digitwise_reference(q, n):
    """_Points.add, by XOR, one sum table or single digits, against a
    pure-Python base-p sum, on up to 40 x 40 codes broadcast against each
    other, the smallest and largest codes among them."""
    f = field(q)
    size = q ** n
    rng = np.random.default_rng(q * 10 + n)
    a, b = ([0, size - 1] + rng.integers(0, size, 38).tolist() if size > 40
            else list(range(size)) for _ in range(2))
    got = _Points(f, n).add(np.array(a)[:, None], np.array(b)[None, :])
    want = [[_reference_code_sum(x, y, f.p, n * f.n) for y in b] for x in a]
    assert got.tolist() == want


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_multiplicative_group_order(q):
    f = field(q)
    mul = mul_table(f)
    orders = [element_order(f, x) for x in range(1, q)]
    assert all((q - 1) % o == 0 for o in orders)
    assert max(orders) == q - 1  # a generator exists
    power = np.ones(q - 1, dtype=np.int64)
    for _ in range(q - 1):
        power = mul[power, np.arange(1, q)]
    assert (power == 1).all()       # x^(q-1) = 1 for every nonzero x


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_antilog_table_is_the_generator_powers(q):
    """The table is filled by doubling; one product per entry is the reference."""
    f = field(q)
    g, val = int(f._exp[1 % (q - 1)]), 1
    for i in range(q - 1):
        assert f._exp[i] == f._exp[i + q - 1] == val
        val = f._raw_mul(val, g)
    assert val == 1


def test_modulus_choices_are_deterministic():
    assert GF(2, 1).modulus == (0, 1)          # plain x for prime fields
    assert GF(2, 2).modulus == (1, 1, 1)       # x^2 + x + 1
    assert GF(2, 3).modulus == (1, 1, 0, 1)    # x^3 + x + 1
    assert GF(3, 2).modulus == (1, 0, 1)       # x^2 + 1 over GF(3)
    assert field(4) is field(4)  # cached, so identity is stable


def test_repr_names_the_order():
    assert [repr(field(q)) for q in (2, 4, 9, 49)] == ["GF(2)", "GF(4)", "GF(9)", "GF(49)"]
    assert repr(GF(3, 2)) == "GF(9)"


def test_worked_products():
    assert field(3).mul_array(2, 2) == 1    # 4 mod 3
    assert field(4).mul_array(2, 2) == 3    # x * x = x + 1 under x^2+x+1
    assert field(5).mul_array(2, 3) == 1    # 2 * 3 = 6 = 1 mod 5
    assert add_table(field(9))[5, 5] == 7   # (2 + x) + (2 + x) = 1 + 2x


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GF(4, 1)           # p not prime
    with pytest.raises(ValueError):
        GF(6, 2)
    with pytest.raises(ValueError):
        GF(2, 0)
    with pytest.raises(ValueError):
        GF(2, 17)          # 2^17 over MAX_ORDER
    with pytest.raises(ValueError):
        field(12)                 # not a prime power


# sha256 of repr(field(q)._exp.tolist()), recorded when the generator was
# found by walking each candidate's whole orbit: the generator and the
# log/antilog tables must not change with the search.  65536 was recorded
# when the table was still filled by one polynomial product per entry.
EXP_TABLE_DIGESTS = {
    4: "421b667a818da865284c26b817fd582d2e4cbb871e149496fc672b2bcd1de5a9",
    8: "5d9e4c5177d942bab8b49608896fd604a8527fb2455a5e9a4c2191a64307623e",
    9: "9f246e97ae2a8206026e381bcf8a3ff1c0366c6a9196a839abc0ea5b87e9055d",
    16: "ffb31c0f8432a5804db35279f94c7c1b3ae56e8bac1fa84290aa2ae426ac92e0",
    25: "99252198fcca5e29d11c7980985f44e7b4699da31bcb1c02c32ad2af812fed11",
    27: "a9a8f3457847dcf14ff9f2d7f784f3eab9b54b189d5bd7140012a3324fd4e73e",
    32: "e62a9b1fc876839824fcfb60516357bfb26beae610807d874c26aa291743d957",
    49: "d89f7e6621ba0fb776cbd979500c44412a8dfc9ee71a0a97622c6c4d3e559e9c",
    64: "67c0017ff8f453253f3398a293eb3ac24ce23b77e7636220046ba54203106625",
    81: "200d41ae1a08f1a12600fa11afb3d1f636181d42f1c34735442da97d52773255",
    125: "c2f6e2ba3f667be9f6ab6fa81157adfdd262b378afe2b41d8e95650b6c393869",
    128: "2608811f66df3a9b06813fbb253b5dc5394024af5bdbe4838d6bdb2d0990555f",
    256: "4f57328f226aac2279b20bd04a69c29c3d81b440a48c3894ec7eedfacdf1cdee",
    65536: "41a30f45d546b7885d2033e2af24f1cff3052e0428e57791b95684148427354e",
}


@pytest.mark.parametrize("q", sorted(EXP_TABLE_DIGESTS))
def test_exp_tables_are_unchanged(q):
    f = field(q)
    assert hashlib.sha256(repr(f._exp.tolist()).encode()).hexdigest() == EXP_TABLE_DIGESTS[q]
    generator = int(f._exp[1])
    assert element_order(f, generator) == q - 1
    assert all(element_order(f, g) < q - 1 for g in range(2, generator))


def test_largest_field_under_the_limit():
    f = GF(2, 16)
    assert f.q == MAX_ORDER
    assert (f.mul_array(3, np.arange(f.q)) == 1).sum() == 1   # 3 has one reciprocal
