"""Exact arithmetic in GF(q) for prime powers q = p^n.

Field elements are plain integers in [0, q).  The integer encodes the
coefficients of the element in the polynomial basis, written base p:
``value = sum(c_i * p**i)`` stands for the polynomial ``sum(c_i * x**i)``.
For prime fields (n = 1) this is ordinary arithmetic mod p.

Extension fields reduce modulo a fixed monic irreducible polynomial of
degree n.  The modulus is chosen deterministically as the monic
irreducible with the smallest base-p integer encoding, so GF(4) always
uses x^2 + x + 1 and serialized data built on a field is reproducible
across runs.

Multiplication and inversion run on precomputed log/antilog tables; a
generator of the multiplicative group is found once by exhaustive order
search when the field is built.  Fields up to 2^16 elements are allowed.
"""

from __future__ import annotations

from functools import lru_cache

DEFAULT_MAX_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    """Trial-division primality check (fields here are tiny)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, n) with q = p^n, p prime.

    Raises ValueError when q is not a prime power.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    n = 0
    rest = q
    while rest % p == 0:
        rest //= p
        n += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, n


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

    def __init__(self, p: int, n: int, max_order: int = DEFAULT_MAX_ORDER) -> None:
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        q = p ** n
        if q > max_order:
            raise ValueError(f"field size {q} exceeds limit {max_order}")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = _find_modulus(p, n)

        # Antilog table of length 2(q-1) so mul never needs a reduction.
        self._exp: list[int] = []
        self._log: list[int] = [0] * q
        g = self._find_generator()
        val = 1
        for i in range(q - 1):
            self._exp.append(val)
            self._log[val] = i
            val = self._raw_mul(val, g)
        self._exp.extend(self._exp)

        self._add_table = None
        self._mul_table = None
        self._log_exp_arrays = None

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

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        for g in range(2, self.q):
            val = g
            order = 1
            while val != 1:
                val = self._raw_mul(val, g)
                order += 1
            if order == self.q - 1:
                return g
        raise RuntimeError("no generator found")  # unreachable for a true field

    # -- public operations ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a + b) % self.p
        out = 0
        mult = 1
        for _ in range(self.n):
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.n == 1:
            return (-a) % self.p
        out = 0
        mult = 1
        for _ in range(self.n):
            out += ((-a) % self.p) * mult
            a //= self.p
            mult *= self.p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def mul_array(self, a, b):
        """Elementwise products of two broadcastable integer numpy arrays."""
        import numpy as np
        if self._log_exp_arrays is None:
            self._log_exp_arrays = (np.array(self._log, dtype=np.int64),
                                    np.array(self._exp, dtype=np.int64))
        log, exp = self._log_exp_arrays
        a = np.asarray(a)
        b = np.asarray(b)
        return np.where((a == 0) | (b == 0), 0, exp[log[a] + log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return self._exp[(self.q - 1) - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        order = 1
        val = a
        while val != 1:
            val = self.mul(val, a)
            order += 1
        return order

    # -- dense tables, handy for exhaustive law checks -------------------

    @property
    def add_table(self):
        if self._add_table is None:
            import numpy as np
            t = np.zeros((self.q, self.q), dtype=np.int32)
            for a in range(self.q):
                for b in range(self.q):
                    t[a, b] = self.add(a, b)
            self._add_table = t
        return self._add_table

    @property
    def mul_table(self):
        if self._mul_table is None:
            import numpy as np
            t = np.zeros((self.q, self.q), dtype=np.int32)
            for a in range(self.q):
                for b in range(self.q):
                    t[a, b] = self.mul(a, b)
            self._mul_table = t
        return self._mul_table

    # -- identity ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))


def field_new(p: int, n: int, max_order: int = DEFAULT_MAX_ORDER) -> GF:
    """Build GF(p^n) with the deterministic modulus choice."""
    return GF(p, n, max_order=max_order)


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    """GF(q) from the order alone; q must be a prime power."""
    p, n = factor_prime_power(q)
    return GF(p, n)
