"""Exact arithmetic in GF(q) for prime powers q = p^n.

Field elements are plain integers in [0, q).  The integer encodes the
coefficients of the element in the polynomial basis, written base p:
``value = sum(c_i * p**i)`` stands for the polynomial ``sum(c_i * x**i)``.
For prime fields (n = 1) this is ordinary arithmetic mod p.  Addition
is digitwise mod p, which the line graph does on whole vectors at once,
by XOR, by one code-pair sum table or digit by digit (see
linegraph._Points.add), so this module only multiplies.

Extension fields reduce modulo a fixed monic irreducible polynomial of
degree n.  The modulus is chosen deterministically as the monic
irreducible with the smallest base-p integer encoding, so GF(4) always
uses x^2 + x + 1 and serialized data built on a field is reproducible
across runs.

Multiplication runs elementwise on numpy arrays of elements, through
precomputed int64 log/antilog tables (GF.mul_array).  The generator
behind them is the least element whose powers by (q-1)/r, for
the prime factors r of q-1, are all not 1; it is found once when the
field is built, and the antilog table is filled in O(log q) numpy steps
(see GF._powers).  Fields up to 2^16 elements are allowed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_ORDER = 1 << 16


# Miller-Rabin with the first thirteen primes as bases is exact below
# _PRIME_TEST_LIMIT (Sorenson and Webster, 2015); larger orders are refused.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; ValueError at or above the limit
    where its witnesses are proven exact."""
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is too large to test for primality "
                         f"(limit {_PRIME_TEST_LIMIT})")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, n) with q = p^n, p prime.

    Tests the n-th root of q, n from floor(log2 q) down to 1, for an exact
    prime root.  Raises ValueError when q is not a prime power or is too
    large for the primality test.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if q >= _PRIME_TEST_LIMIT:
        raise ValueError(f"q = {q} is too large (limit {_PRIME_TEST_LIMIT})")
    for n in range(q.bit_length() - 1, 0, -1):
        # Below the limit a float n-th root, n >= 2, is off by far less
        # than 1/2, so it rounds to the exact root whenever there is one.
        p = round(q ** (1 / n)) if n > 1 else q
        if p ** n == q and is_prime(p):
            return p, n
    raise ValueError(f"{q} is not a prime power")


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# Polynomials over GF(p), ascending coefficient tuples
# ----------------------------------------------------------------------

def _poly_mod(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num / den over GF(p).  den must be monic."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return [c % p for c in num[:dd]]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _int_to_poly(value: int, p: int, degree: int) -> tuple[int, ...]:
    coeffs = []
    for _ in range(degree):
        coeffs.append(value % p)
        value //= p
    return tuple(coeffs)


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree <= n/2."""
    n = len(coeffs) - 1
    if coeffs[0] == 0:
        return False  # divisible by x
    for d in range(1, n // 2 + 1):
        for low in range(p ** d):
            div = _int_to_poly(low, p, d) + (1,)
            if not any(_poly_mod(list(coeffs), div, p)):
                return False
    return True


def _find_modulus(p: int, n: int) -> tuple[int, ...]:
    """Monic irreducible of degree n over GF(p) with the least encoding."""
    if n == 1:
        return (0, 1)  # the polynomial x
    for low in range(p ** n):
        cand = _int_to_poly(low, p, n) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible of degree {n} over GF({p})")  # unreachable


# ----------------------------------------------------------------------
# The field itself
# ----------------------------------------------------------------------

class GF:
    """Galois field GF(p^n) with log/antilog multiplication tables.

    Instances are immutable after construction and safe to share across
    threads.  Elements are ints in [0, q); no wrapping class is used.
    """

    def __init__(self, p: int, n: int) -> None:
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        q = p ** n
        if q > MAX_ORDER:
            raise ValueError(f"field size {q} exceeds limit {MAX_ORDER}")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = _find_modulus(p, n)

        # Antilog table of length 2(q-1) so mul_array never needs a reduction.
        exp = self._powers(self._find_generator(), q - 1)
        self._log = np.zeros(q, dtype=np.int64)
        self._log[exp] = np.arange(q - 1)
        self._exp = np.concatenate((exp, exp))
        self._log.flags.writeable = self._exp.flags.writeable = False  # shared by field()

    # -- bootstrap arithmetic (table-free) ------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a * b) % self.p
        pa = _int_to_poly(a, self.p, self.n)
        pb = _int_to_poly(b, self.p, self.n)
        rem = _poly_mod(_poly_mul(pa, pb, self.p), self.modulus, self.p)
        out = 0
        for c in reversed(rem):
            out = out * self.p + c
        return out

    def _raw_pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply on _raw_mul."""
        out = 1
        while e:
            if e & 1:
                out = self._raw_mul(out, a)
            e >>= 1
            if e:
                a = self._raw_mul(a, a)
        return out

    def _powers(self, g: int, count: int) -> np.ndarray:
        """g^0 .. g^(count-1), doubling the known prefix at each step:
        exp[B:2B] = exp[:B] * g^B, and multiplying by g^B is a GF(p)-linear
        map on base-p digit vectors, whose rows are the digits of x^i * g^B."""
        p, n = self.p, self.n
        weights = p ** np.arange(n, dtype=np.int64)
        exp = np.ones(1, dtype=np.int64)
        while len(exp) < count:
            step = self._raw_mul(int(exp[-1]), g)
            images = np.array([self._raw_mul(p ** i, step) for i in range(n)])
            digits = exp[:count - len(exp), None] // weights % p
            more = (digits @ (images[:, None] // weights % p)) % p @ weights
            exp = np.concatenate((exp, more))
        return exp

    def _find_generator(self) -> int:
        """The least g >= 2 of order q - 1 (1 for GF(2)): g^((q-1)/r) != 1
        for every prime factor r of q - 1."""
        if self.q == 2:
            return 1
        exponents = [(self.q - 1) // r for r in _prime_factors(self.q - 1)]
        for g in range(2, self.q):
            if all(self._raw_pow(g, e) != 1 for e in exponents):
                return g
        raise RuntimeError("no generator found")  # unreachable for a true field

    # -- public operations ----------------------------------------------

    def mul_array(self, a, b):
        """Elementwise products of two broadcastable integer numpy arrays."""
        a = np.asarray(a)
        b = np.asarray(b)
        return np.where((a == 0) | (b == 0), 0, self._exp[self._log[a] + self._log[b]])

    # -- identity ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    """GF(q) from the order alone; q must be a prime power."""
    p, n = factor_prime_power(q)
    return GF(p, n)
