import random

import pytest

from a2tp.gf import (
    FieldContext,
    NoPrimitivePolynomial,
    PrimePower,
    UnsupportedSize,
    build_field,
    factorize,
    is_prime,
    prime_power,
)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]


def _mul(ctx: FieldContext, a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return ctx.exp[(ctx.dlog[a] + ctx.dlog[b]) % ctx.mult_order]


def _in_subfield(ctx: FieldContext, a: int) -> bool:
    """Membership in the intermediate field F_q = {x : x^q = x}."""
    return ctx.frobenius(a) == a


@pytest.fixture(scope="module")
def fields():
    return {q: build_field(prime_power(q)) for q in SMALL_Q}


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
        build_field(PrimePower(2, 7))  # q = 128


def test_q2_zeta_order_seven():
    ctx = build_field(prime_power(2))
    assert ctx.order == 8
    assert len(ctx.exp) == 7
    # every non-identity element generates: all powers distinct
    assert len(set(ctx.exp)) == 7


def test_q4_field_of_64():
    ctx = build_field(prime_power(4))
    assert ctx.order == 64
    assert ctx.mult_order == 63
    subfield = [a for a in range(ctx.order) if ctx.pow(a, 4) == a or a == 0]
    assert len(subfield) == 4


def test_exp_dlog_inverse(fields):
    for q, ctx in fields.items():
        for k in range(ctx.mult_order):
            assert ctx.dlog[ctx.exp[k]] == k
        for a in range(1, ctx.order):
            assert ctx.exp[ctx.dlog[a]] == a


def test_subfield_size(fields):
    for q, ctx in fields.items():
        assert sum(1 for a in range(ctx.order) if _in_subfield(ctx, a)) == q


def test_trace_zero():
    ctx = build_field(prime_power(5))
    assert ctx.trace(0) == 0


def test_trace_of_one_char2():
    ctx = build_field(prime_power(2))
    assert ctx.trace(1) == 1  # 1 + 1 + 1 in char 2


def test_trace_of_one_char3():
    ctx = build_field(prime_power(3))
    assert ctx.trace(1) == 0  # 3 * 1 = 0 in char 3


def test_trace_lands_in_subfield(fields):
    for q, ctx in fields.items():
        rng = random.Random(q)
        sample = range(ctx.order) if ctx.order <= 512 else rng.sample(range(ctx.order), 512)
        for a in sample:
            assert _in_subfield(ctx, ctx.trace(a))


def test_trace_linearity(fields):
    for q, ctx in fields.items():
        subfield = [a for a in range(ctx.order) if _in_subfield(ctx, a)]
        rng = random.Random(q)
        if q <= 8:
            pairs = [(a, b) for a in range(ctx.order) for b in (0, 1, ctx.zeta)]
        else:
            pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(64)]
        for a, b in pairs:
            for c in subfield:
                lhs = ctx.trace(ctx.add(_mul(ctx, c, a), b))
                rhs = ctx.add(_mul(ctx, c, ctx.trace(a)), ctx.trace(b))
                assert lhs == rhs


def test_trace_zero_count(fields):
    # kernel of a surjective F_q-linear map to F_q has q^2 elements
    for q, ctx in fields.items():
        nonzero = sum(1 for a in range(1, ctx.order) if ctx.trace(a) == 0)
        assert nonzero == q * q - 1


def test_trace_frobenius_invariant(fields):
    for q, ctx in fields.items():
        rng = random.Random(q + 1)
        sample = range(ctx.order) if ctx.order <= 512 else rng.sample(range(ctx.order), 256)
        for a in sample:
            assert ctx.trace(ctx.frobenius(a)) == ctx.trace(a)


def test_frobenius_cubed_identity(fields):
    for q, ctx in fields.items():
        z = ctx.zeta
        assert ctx.frobenius(ctx.frobenius(ctx.frobenius(z))) == z
        assert ctx.frobenius(0) == 0


def test_frobenius_is_power_map_q2():
    ctx = build_field(prime_power(2))
    for k in range(7):
        assert ctx.frobenius(ctx.exp[k]) == ctx.exp[(2 * k) % 7]


def test_q4_order3_cosets_trace_zero():
    # the two elements of multiplicative order 3 in F_64^x / F_4^x are
    # the cosets with Singer logs 7 and 14; both are trace-zero
    ctx = build_field(prime_power(4))
    for log in (7, 14):
        assert ctx.trace(ctx.exp[log]) == 0


def test_dlog_roundtrip_q3():
    ctx = build_field(prime_power(3))
    for k in range(26):
        assert ctx.dlog[ctx.exp[k]] == k


def test_factorize_and_is_prime():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
