"""The trace-zero set of the Singer model of PG(2,q), q = p^r.

F_{q^3} is F_p[t] modulo the lexicographically first primitive modulus of
degree 3r, with zeta the class of t; polynomials are coefficient lists over
F_p, low degree first.  `trace_zero_logs` finds the logs k mod q^2+q+1 with
Tr(zeta^k) = 0 (Singer, 1938) without tabulating the field: the trace is
F_p-linear (Lidl-Niederreiter, Thm 2.23), so its values on the basis t^i
decide every power of zeta.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

MAX_Q = 64


class BadInput(ValueError):
    """Input the program rejects, as opposed to a bug; the command line exits 2."""


class UnsupportedSize(BadInput):
    """q is outside the supported range 2..64."""


class NoPrimitivePolynomial(RuntimeError):
    """No monic primitive polynomial was found (indicates an internal bug)."""


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division; {} below 2."""
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


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


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
    """Factor q as p^r; UnsupportedSize past MAX_Q, BadInput if q is no prime power."""
    if q > MAX_Q:  # before `factorize`: trial division of a large q takes minutes
        raise UnsupportedSize(f"q = {q} exceeds the supported maximum {MAX_Q}")
    f = factorize(q)
    if len(f) != 1:
        raise BadInput(f"{q} is not a prime power")
    ((p, r),) = f.items()
    return PrimePower(p, r)


def _digits(n: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(n % p)
        n //= p
    return out


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


def _has_root(poly: list[int], a: int, p: int) -> bool:
    """poly(a) = 0 mod p, by Horner's rule."""
    value = 0
    for c in reversed(poly):
        value = (value * a + c) % p
    return value == 0


def _primitive_modulus(pp: PrimePower) -> list[int]:
    """The lexicographically first primitive modulus of degree 3r over F_p.

    Candidate moduli t^d + (lower part) are scanned in ascending order of the
    lower coefficients read as a base-p number; a candidate is accepted iff the class of t
    has multiplicative order exactly q^3 - 1, which simultaneously certifies
    irreducibility and primitivity.  A candidate with a root a in F_p has the
    factor t - a, so it is rejected by evaluation, O(p d), before any power.
    t^(q^3 - 1) = 1 is tested as t^(q^3) = t, t being a unit (the constant
    term is nonzero): when p = 2 the exponent has one bit, so about half the
    products.
    """
    q = pp.q
    if q > MAX_Q:  # a PrimePower built directly has not passed `prime_power`'s gate
        raise UnsupportedSize(f"q = {q} exceeds the supported maximum {MAX_Q}")
    p = pp.p
    d = 3 * pp.r
    m = q**3 - 1
    m_primes = list(factorize(m))
    t = [0, 1] + [0] * (d - 2)
    for n in range(1, p**d):
        lower = _digits(n, p, d)
        if lower[0] == 0:
            continue  # t would divide the candidate
        candidate = lower + [1]
        if any(_has_root(candidate, a, p) for a in range(1, p)):
            continue
        if _poly_pow_mod(t, m + 1, candidate, p) != t:
            continue
        if any(_is_one(_poly_pow_mod(t, m // ell, candidate, p)) for ell in m_primes):
            continue
        return candidate
    raise NoPrimitivePolynomial(f"no primitive modulus for p={p}, degree {d}")


def trace_zero_logs(pp: PrimePower) -> tuple[int, ...]:
    """The logs k < q^2+q+1 with Tr(zeta^k) = 0, zeta the class of t.

    Tr(a) = a + a^q + a^(q^2) is F_p-linear, so it is tabulated once, as the
    columns Tr(t^i) on the basis t^i; zeta^k is then walked by multiplication
    by t, and k kept when its coefficient vector maps to 0 mod p.
    """
    p, q = pp.p, pp.q
    modulus = _primitive_modulus(pp)
    d = len(modulus) - 1
    t = [0, 1] + [0] * (d - 2)
    frobenius = [_poly_pow_mod(t, e, modulus, p) for e in (1, q, q * q)]
    powers = [[1] + [0] * (d - 1)] * 3  # (t^e)^i for e = 1, q, q^2, one product per step
    columns = []
    for _ in range(d):
        columns.append(list(map(sum, zip(*powers))))
        powers = [_poly_mul_mod(a, f, modulus, p) for a, f in zip(powers, frobenius)]
    rows = list(zip(*columns))  # rows[j][i]: the coefficient of t^j in Tr(t^i)
    out = []
    cur = [1] + [0] * (d - 1)
    for k in range(q * q + q + 1):
        if not any(sum(map(mul, cur, row)) % p for row in rows):
            out.append(k)
        top = cur[-1]  # cur *= t, reduced by the monic modulus
        cur = [0] + cur[:-1]
        if top:
            for i in range(d):
                cur[i] = (cur[i] - top * modulus[i]) % p
    return tuple(out)
