"""Exact arithmetic in the cubic extension F_{q^3} of F_q, q = p^r.

Elements are stored as packed integers: the coefficient of t^i in the
polynomial representation is the i-th base-p digit.  A full exp/dlog table
for a primitive generator turns multiplicative questions into modular
arithmetic on exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_Q = 64


class UnsupportedSize(ValueError):
    """q is outside the supported range 2..64."""


class NoPrimitivePolynomial(RuntimeError):
    """No monic primitive polynomial was found (indicates an internal bug)."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class PrimePower:
    p: int
    r: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.r < 1:
            raise ValueError("exponent must be positive")

    @property
    def q(self) -> int:
        return self.p**self.r


def prime_power(q: int) -> PrimePower:
    """Factor q as p^r, raising ValueError if q is not a prime power."""
    f = factorize(q) if q >= 2 else {}
    if len(f) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, r),) = f.items()
    return PrimePower(p, r)


def _digits(n: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(n % p)
        n //= p
    return out


def _pack(coeffs, p: int) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * p + (c % p)
    return code


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """Product of coefficient lists, reduced mod the monic `modulus` and mod p."""
    d = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(d):
                prod[k - d + i] = (prod[k - d + i] - c * modulus[i]) % p
    prod = prod[:d]
    return prod + [0] * (d - len(prod))


def _poly_pow_mod(base: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    d = len(modulus) - 1
    result = [1] + [0] * (d - 1)
    acc = base[:]
    while e:
        if e & 1:
            result = _poly_mul_mod(result, acc, modulus, p)
        acc = _poly_mul_mod(acc, acc, modulus, p)
        e >>= 1
    return result


def _is_one(poly: list[int]) -> bool:
    return poly[0] == 1 and not any(poly[1:])


@dataclass(frozen=True)
class FieldContext:
    """Immutable arithmetic context for F_{q^3} = F_p[t]/(modulus).

    `exp[k]` is the packed code of zeta^k where zeta is the class of t;
    `dlog` inverts it (dlog[0] is a -1 sentinel for the zero element).
    """

    pp: PrimePower
    modulus: tuple[int, ...]
    exp: tuple[int, ...]
    dlog: tuple[int, ...]

    @property
    def p(self) -> int:
        return self.pp.p

    @property
    def q(self) -> int:
        return self.pp.q

    @property
    def order(self) -> int:
        return self.q**3

    @property
    def mult_order(self) -> int:
        return self.order - 1

    @property
    def zeta(self) -> int:
        return self.exp[1]

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        shift = 1
        while a or b:
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e <= 0:
                raise ZeroDivisionError("0 has no non-positive power")
            return 0
        return self.exp[(self.dlog[a] * e) % self.mult_order]

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.q) if a else 0

    def trace(self, a: int) -> int:
        aq = self.frobenius(a)
        return self.add(self.add(a, aq), self.frobenius(aq))


def build_field(pp: PrimePower) -> FieldContext:
    """Build F_{q^3} with the lexicographically first primitive modulus.

    Candidate moduli t^d + (lower part) are scanned in ascending order of the
    packed lower-coefficient code; a candidate is accepted iff the class of t
    has multiplicative order exactly q^3 - 1, which simultaneously certifies
    irreducibility and primitivity.
    """
    q = pp.q
    if q > MAX_Q:
        raise UnsupportedSize(f"q = {q} exceeds the supported maximum {MAX_Q}")
    p = pp.p
    d = 3 * pp.r
    m = q**3 - 1
    m_primes = list(factorize(m))

    modulus = None
    for n in range(1, p**d):
        lower = _digits(n, p, d)
        if lower[0] == 0:
            continue  # t would divide the candidate
        candidate = lower + [1]
        t = [0, 1] + [0] * (d - 2)
        if not _is_one(_poly_pow_mod(t, m, candidate, p)):
            continue
        if any(_is_one(_poly_pow_mod(t, m // ell, candidate, p)) for ell in m_primes):
            continue
        modulus = candidate
        break
    if modulus is None:
        raise NoPrimitivePolynomial(f"no primitive modulus for p={p}, degree {d}")

    # Tabulate powers of zeta = class of t by repeated multiply-by-t.
    exp = [0] * m
    dlog = [-1] * (p**d)
    cur = [1] + [0] * (d - 1)
    for k in range(m):
        code = _pack(cur, p)
        if dlog[code] != -1:
            raise NoPrimitivePolynomial("duplicate power: modulus not primitive")
        exp[k] = code
        dlog[code] = k
        # cur *= t, reduced by the monic modulus
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(d):
                cur[i] = (cur[i] - top * modulus[i]) % p
    return FieldContext(pp=pp, modulus=tuple(modulus), exp=tuple(exp), dlog=tuple(dlog))
