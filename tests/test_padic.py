import random
from fractions import Fraction

import pytest

from anabelomorph.padic import (
    DivisionByPrecisionZero,
    PadicScalar,
    PrecisionError,
    PrimeMismatchError,
    is_prime,
    padic_log,
)


def S(n, p=3, prec=24):
    return PadicScalar.from_int(n, p, prec)


def test_prime_checked_at_construction():
    with pytest.raises(ValueError):
        PadicScalar.from_int(5, 6)
    assert is_prime(2) and is_prime(97) and not is_prime(91)


def test_exact_cancellation_gives_bottom():
    a = S(1 + 3)
    b = S(-1 - 3)
    c = a + b
    assert c.is_bottom
    assert c.valuation_lower_bound() >= 24


def test_add_across_valuations():
    # v=0 unit 1 plus v=2 unit 1 over p=3: unit 1+9=10, valuation 0
    a = PadicScalar(3, 0, 1, 5)
    b = PadicScalar(3, 2, 1, 5)
    c = a + b
    assert c.valuation() == 0
    assert c.unit % 3 ** 3 == 10


def test_add_with_carry_renormalizes():
    # 2 + 1 = 3 over p=3
    c = S(2) + S(1)
    assert c.valuation() == 1
    assert c.unit == 1


def test_mul_identity_and_valuations():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(-400, 400) or 1
        m = rng.randrange(-400, 400) or 1
        a, b = S(n), S(m)
        assert (a * S(1)).lift() == a.lift()
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_inv_of_p():
    x = S(3).inv()
    assert x.valuation() == -1
    assert x.unit == 1
    assert S(2).inv().lift() * 2 % 3 ** 24 == 1


def test_division_by_bottom_raises():
    with pytest.raises(DivisionByPrecisionZero):
        S(5) / (S(1) - S(1))


def test_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        S(1, p=3) + S(1, p=5)


def test_precision_error_when_digits_exhausted():
    a = PadicScalar(3, 0, 1, 2)
    noise = PadicScalar.bottom(3, 0)
    with pytest.raises(PrecisionError):
        a + noise


def test_ultrametric_randomized():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randrange(-3 ** 6, 3 ** 6) or 1
        m = rng.randrange(-3 ** 6, 3 ** 6) or 1
        a, b = S(n, prec=40), S(m, prec=40)
        s = a + b
        vmin = min(a.valuation(), b.valuation())
        if s.is_bottom:
            assert s.valuation_lower_bound() >= vmin
        else:
            assert s.valuation() >= vmin
            if a.valuation() != b.valuation():
                assert s.valuation() == vmin


def test_inv_roundtrip():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randrange(1, 3 ** 8)
        a = S(n, prec=30)
        d = a.inv().inv() - a
        assert d.is_bottom


# ----------------------------------------------------------------------
# Iwasawa logarithm


def oracle_log_series(x, p, terms, modulus_exp):
    """Direct rational summation of log(1+x) = sum (-1)^(k+1) x^k / k.

    Returns the partial sum reduced modulo p^modulus_exp (as an integer),
    entirely independent of the PadicScalar code path.
    """
    total = Fraction(0)
    for k in range(1, terms + 1):
        total += Fraction((-1) ** (k + 1) * x ** k, k)
    num, den = total.numerator, total.denominator
    pk = p ** modulus_exp
    return num * pow(den, -1, pk) % pk


# frozen from oracle_log_series(3, 3, 40, 7)
GOLDEN_LOG_4_BASE3_MOD3_7 = 1992


def test_log_one_is_zero():
    r = padic_log(S(1, prec=30))
    assert r.is_bottom


def test_log_branch_kills_p_powers():
    for m in (1, 2, 5, -3):
        r = padic_log(PadicScalar.from_fraction(Fraction(3) ** m, 3, 30))
        assert r.is_bottom


# (p, u, x): the oracle of log(u) is the series of log(1 + x); at p = 2 a
# unit u = 3 mod 4 takes the squaring branch and its oracle is log(-u),
# since the branch kills torsion
GOLDEN_LOGS = [(3, 4, 3), (2, 5, 4), (2, 3, -4), (5, 6, 5), (7, 8, 7)]


@pytest.mark.parametrize("p, u, x", GOLDEN_LOGS,
                         ids=[f"u={u} p={p}" for p, u, _ in GOLDEN_LOGS])
def test_log_golden_series_value(p, u, x):
    N = 20
    got = padic_log(S(u, p=p, prec=40), prec=N)
    fresh = oracle_log_series(x, p, 60, 7)
    if p == 3:
        assert fresh == GOLDEN_LOG_4_BASE3_MOD3_7
    assert got.lift() % p ** 7 == fresh
    # 40 digits reach W = N + 8 + ceil(log_p(N + 8)) <= 33: all N claimed
    assert got.prec == N


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_log_claims_no_wrong_digit_at_the_tight_end(p):
    # u = 1 + p^k, whose log has valuation about k, at the last digits u
    # carries: a claimed digit must be a digit of the log at prec 240; it
    # may claim fewer digits than it is asked for
    digits = 40
    for k in range(1, 31):
        n = 1 + p ** k
        ref = padic_log(S(n, p=p, prec=240))
        for N in [*range(digits - 4, digits + 1), None]:
            got = padic_log(S(n, p=p, prec=digits), prec=N)
            if got.is_bottom:
                assert got.valuation_lower_bound() <= ref.valuation()
                continue
            assert got.prec <= (digits if N is None else N)
            assert got.valuation() == ref.valuation()
            assert (got.unit - ref.unit) % p ** got.prec == 0


def test_log_homomorphism_randomized():
    rng = random.Random(17)
    for _ in range(60):
        a = rng.randrange(1, 3 ** 10)
        b = rng.randrange(1, 3 ** 10)
        u, w = S(a, prec=48), S(b, prec=48)
        lhs = padic_log(u * w, prec=24)
        rhs = padic_log(u, prec=24) + padic_log(w, prec=24)
        assert (lhs - rhs).is_bottom or (lhs - rhs).valuation() >= 20


def test_log_power_scaling():
    rng = random.Random(19)
    for _ in range(40):
        a = rng.randrange(1, 3 ** 10)
        k = rng.randrange(-5, 6)
        if k == 0:
            continue
        u = S(a, prec=48)
        lhs = padic_log(u ** k, prec=20)
        rhs = k * padic_log(u, prec=20)
        assert (lhs - rhs).is_bottom or (lhs - rhs).valuation() >= 18


def test_log_of_a_short_unit_raises():
    # fewer digits than a Q_p element holds: an error, not a guess
    with pytest.raises(PrecisionError):
        padic_log(S(4, prec=8))


def test_log_of_bottom_raises():
    with pytest.raises(DivisionByPrecisionZero):
        padic_log(PadicScalar.bottom(3))


def test_negative_power_of_bottom_raises():
    with pytest.raises(DivisionByPrecisionZero):
        PadicScalar.bottom(3) ** -1
