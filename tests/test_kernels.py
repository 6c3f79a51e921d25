"""The shared kernels against oracles written here.

``_eliminate`` is the package's one pivoting elimination: the p-adic
determinant (custom-layer norms, Krasner's Sylvester determinants) and
the p-adic solve (inversion over custom layers) read their answers off
it.  Layer norms are read from the conjugate cofactor; they are checked
against the determinant of the multiplication matrix, against
multiplicativity, and against x * cofactor = N(x).
"""

import random
from fractions import Fraction

import pytest

from anabelomorph.fields import (FieldElement, TowerStep, _padic_det,
                                 _padic_solve, build_field, norm_to_qp)
from anabelomorph.padic import _vp

T = TowerStep
PRIMES = (2, 3, 5, 7)


def _frac_det(rows):
    """Exact determinant by Fraction Gaussian elimination."""
    A = [[Fraction(a) for a in row] for row in rows]
    n = len(A)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det *= A[k][k]
        for i in range(k + 1, n):
            fac = A[i][k] / A[k][k]
            A[i] = [a - fac * b for a, b in zip(A[i], A[k])]
    return det


def _frac_solve(rows, rhs):
    """Exact solution of rows * x = rhs by Cramer's rule."""
    det = _frac_det(rows)
    out = []
    for j in range(len(rows)):
        rj = [row[:j] + [b] + row[j + 1:] for row, b in zip(rows, rhs)]
        out.append(_frac_det(rj) / det)
    return out


def _v(q, p):
    q = Fraction(q)
    return _vp(q.numerator, p) - _vp(q.denominator, p) if q else None


def _random_matrix(rng, p, n):
    # entries with assorted p-adic valuations, so pivots are not all units
    return [[rng.randrange(-p ** 4, p ** 4) * p ** rng.choice((0, 0, 1, 2))
             for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("p", PRIMES)
def test_det_matches_exact(p):
    rng = random.Random(1000 + p)
    m = 24
    for _ in range(25):
        rows = _random_matrix(rng, p, rng.randint(1, 6))
        assert _padic_det(rows, p, m) == _frac_det(rows) % p ** m


@pytest.mark.parametrize("p", PRIMES)
def test_solve_matches_exact(p):
    rng = random.Random(2000 + p)
    m = 24
    checked = 0
    while checked < 25:
        n = rng.randint(1, 6)
        rows = _random_matrix(rng, p, n)
        det = _frac_det(rows)
        if det == 0 or _v(det, p) >= m // 2:
            continue
        rhs = [rng.randrange(-p ** 3, p ** 3) for _ in range(n)]
        cols = [list(c) for c in zip(*rows)]
        num, shift = _padic_solve(cols, rhs, p, m)
        # A num = p^shift rhs holds exactly mod p^m ...
        for row, b in zip(rows, rhs):
            assert (sum(a * x for a, x in zip(row, num))
                    - p ** shift * b) % p ** m == 0
        # ... so num agrees with p^shift x mod p^(m - v(det))
        for x, c in zip(_frac_solve(rows, rhs), num):
            d = c - p ** shift * x
            assert d == 0 or _v(d, p) >= m - _v(det, p)
        checked += 1


@pytest.mark.parametrize("p", PRIMES)
def test_singular_to_precision(p):
    rng = random.Random(3000 + p)
    m = 12
    rows = _random_matrix(rng, p, 4)
    # exactly singular: the determinant is zero to precision
    rows[3] = [2 * a - 3 * b + c for a, b, c in zip(*rows[:3])]
    assert _padic_det(rows, p, m) == 0
    # a repeated row is cleared exactly, so the solve sees a zero column
    rows[3] = rows[1]
    assert _padic_det(rows, p, m) == 0
    with pytest.raises(ZeroDivisionError):
        _padic_solve([list(c) for c in zip(*rows)], [1, 0, 0, 0], p, m)
    # singular mod p^m only: a column that vanishes to precision
    rows = [[p ** m, 1], [p ** (m + 1), 2]]
    assert _padic_det(rows, p, m) == 0
    with pytest.raises(ZeroDivisionError):
        _padic_solve([list(c) for c in zip(*rows)], [1, 0], p, m)


LAYERS = {
    "cyclo p=2": (2, [T.cyclotomic(8)]),
    "cyclo p=5": (5, [T.cyclotomic(5)]),
    "kummer p=2": (2, [T.cyclotomic(4), T.kummer(2, 3)]),
    "kummer p=3": (3, [T.cyclotomic(3), T.kummer(3, 3)]),
    "kummer p=5": (5, [T.cyclotomic(5), T.kummer(5, 6)]),
    "kummer p=7": (7, [T.cyclotomic(7), T.kummer(7, 7)]),
    "quad p=3": (3, [T.cyclotomic(3), T.custom([-2, 0])]),
    "quad p=5": (5, [T.custom([-5, 0])]),
    "quad p=7": (7, [T.cyclotomic(7), T.custom([-3, 0])]),
}


@pytest.fixture(scope="module", params=sorted(LAYERS))
def tower(request):
    p, steps = LAYERS[request.param]
    return build_field(p, steps)


def test_norm_from_cofactor_path(tower):
    K = tower
    p = K.p
    rng = random.Random(f"norm:{K.name}")
    for _ in range(3):
        x, y = (FieldElement(K, [rng.randrange(p ** 3) for _ in range(K.n)])
                for _ in range(2))
        nint, s, m = K.norm_tower(x)
        assert s == 0
        # the norm is the determinant of multiplication by x over Q_p
        cols, mx = K._flat_mult_matrix(x)
        assert nint % p ** m == _padic_det(cols, p, mx) % p ** m
        # x * cofactor = N(x)
        cof, nint2, _, _ = K._cofactor(x)
        assert nint2 % p ** m == nint % p ** m
        assert (x * cof - K.from_int(nint)).is_zero_to_precision()
        # N(xy) = N(x) N(y)
        assert norm_to_qp(x * y) == norm_to_qp(x) * norm_to_qp(y)
