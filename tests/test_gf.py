import json
import random
from pathlib import Path

import pytest

from a2tp.gf import (
    MAX_Q,
    PrimePower,
    UnsupportedSize,
    _digits,
    _poly_mul_mod,
    _poly_pow_mod,
    _primitive_modulus,
    factorize,
    is_prime,
    prime_power,
    trace_zero_logs,
)
from a2tp.plane import build_plane
from helpers import reference_primitive_modulus

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]
SUPPORTED_Q = [q for q in range(2, MAX_Q + 1) if len(factorize(q)) == 1]
GOLDEN = json.loads((Path(__file__).parent / "golden" / "trace_zero_logs.json").read_text())


class Field:
    """F_{q^3} as coefficient lists mod the program's modulus, by the definitions."""

    def __init__(self, q: int):
        self.pp = prime_power(q)
        self.p, self.q = self.pp.p, q
        self.modulus = _primitive_modulus(self.pp)
        self.d = len(self.modulus) - 1

    def elements(self):
        return [_digits(n, self.p, self.d) for n in range(self.p**self.d)]

    def zeta_pow(self, k: int) -> list[int]:
        return _poly_pow_mod([0, 1] + [0] * (self.d - 2), k, self.modulus, self.p)

    def mul(self, a, b):
        return _poly_mul_mod(a, b, self.modulus, self.p)

    def add(self, a, b):
        return [(x + y) % self.p for x, y in zip(a, b)]

    def frobenius(self, a):
        return _poly_pow_mod(a, self.q, self.modulus, self.p)

    def trace(self, a):
        aq = self.frobenius(a)
        return self.add(self.add(a, aq), self.frobenius(aq))

    def in_subfield(self, a) -> bool:
        return self.frobenius(a) == a


@pytest.fixture(scope="module")
def fields():
    return {q: Field(q) for q in SMALL_Q}


@pytest.fixture(scope="module")
def logs():
    return {q: trace_zero_logs(prime_power(q)) for q in SUPPORTED_Q}


def test_primitive_modulus_matches_the_search_without_root_test():
    # The root test and the t^(q^3) = t form keep the scan order and accept the same
    # candidates, so the modulus is the same.
    for q in SUPPORTED_Q:
        pp = prime_power(q)
        assert _primitive_modulus(pp) == reference_primitive_modulus(pp), q


def test_prime_power_parsing():
    assert prime_power(8) == PrimePower(2, 3)
    assert prime_power(27) == PrimePower(3, 3)
    assert prime_power(13) == PrimePower(13, 1)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_prime_power_validates():
    with pytest.raises(ValueError):
        PrimePower(4, 1)
    with pytest.raises(ValueError):
        PrimePower(2, 0)


def test_unsupported_size():
    with pytest.raises(UnsupportedSize):
        trace_zero_logs(PrimePower(2, 7))  # q = 128


def test_q2_zeta_order_seven():
    F = Field(2)
    powers = [F.zeta_pow(k) for k in range(8)]
    assert len({tuple(z) for z in powers[:7]}) == 7  # all powers distinct
    assert powers[7] == [1, 0, 0]


def test_subfield_size(fields):
    for q, F in fields.items():
        assert sum(1 for a in F.elements() if F.in_subfield(a)) == q


def test_trace_zero():
    F = Field(5)
    assert F.trace([0, 0, 0]) == [0, 0, 0]


def test_trace_of_one_char2():
    F = Field(2)
    assert F.trace([1, 0, 0]) == [1, 0, 0]  # 1 + 1 + 1 in char 2


def test_trace_of_one_char3():
    F = Field(3)
    assert F.trace([1, 0, 0]) == [0, 0, 0]  # 3 * 1 = 0 in char 3


def test_trace_lands_in_subfield(fields):
    for q, F in fields.items():
        rng = random.Random(q)
        elements = F.elements()
        sample = elements if len(elements) <= 512 else rng.sample(elements, 512)
        for a in sample:
            assert F.in_subfield(F.trace(a))


def test_trace_linearity(fields):
    # trace_zero_logs rests on this: Tr(c a + b) = c Tr(a) + Tr(b) for c in F_q
    for q, F in fields.items():
        elements = F.elements()
        subfield = [a for a in elements if F.in_subfield(a)]
        rng = random.Random(q)
        for _ in range(64):
            a, b = rng.choice(elements), rng.choice(elements)
            for c in subfield:
                assert F.trace(F.add(F.mul(c, a), b)) == F.add(F.mul(c, F.trace(a)), F.trace(b))


def test_trace_zero_count(fields, logs):
    # the kernel of Tr has q^2 elements, q^2 - 1 of them in the q + 1 cosets of F_q^x
    for q, F in fields.items():
        zero = [0] * F.d
        nonzero = sum(1 for a in F.elements()[1:] if F.trace(a) == zero)
        assert nonzero == q * q - 1
    for q, tz in logs.items():
        assert len(tz) == q + 1


def test_frobenius_cubed_identity(fields):
    for q, F in fields.items():
        zeta = F.zeta_pow(1)
        assert F.frobenius(F.frobenius(F.frobenius(zeta))) == zeta
        assert F.frobenius([0] * F.d) == [0] * F.d


def test_frobenius_is_power_map_q2():
    # trace_zero_logs reads (t^i)^q as t^(i q)
    F = Field(2)
    for k in range(7):
        assert F.frobenius(F.zeta_pow(k)) == F.zeta_pow(2 * k % 7)


def test_trace_zero_logs_match_the_direct_trace(fields):
    for q, F in fields.items():
        N = q * q + q + 1
        direct = tuple(k for k in range(N) if not any(F.trace(F.zeta_pow(k))))
        assert trace_zero_logs(F.pp) == direct


def test_trace_frobenius_invariant(logs):
    # Tr(a^q) = Tr(a), so the trace-zero logs are closed under k -> q k mod N
    for q, tz in logs.items():
        N = q * q + q + 1
        assert {q * k % N for k in tz} == set(tz), q


def test_zero_is_a_trace_zero_log_exactly_in_characteristic_3(logs):
    # Tr(zeta^0) = Tr(1) = 3
    for q, tz in logs.items():
        assert (0 in tz) == (prime_power(q).p == 3), q


def test_q4_order3_cosets_trace_zero():
    # the two elements of multiplicative order 3 in F_64^x / F_4^x are
    # the cosets with Singer logs 7 and 14; both are trace-zero
    assert {7, 14} <= set(trace_zero_logs(prime_power(4)))


def test_plane_matches_golden_for_every_supported_q():
    assert [e["q"] for e in GOLDEN] == SUPPORTED_Q
    for entry in GOLDEN:
        assert list(build_plane(entry["q"]).tz) == entry["tz"], entry["q"]


def test_factorize_and_is_prime():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
