"""Truncated p-adic scalars with explicit precision tracking.

A nonzero scalar is stored as p^v * u where u is a unit known modulo p^N
(N significant base-p digits).  A quantity that is zero to working
precision is stored as BOTTOM together with a guaranteed lower bound on
its valuation, so downstream valuation comparisons are never optimistic.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

DEFAULT_PRECISION = 64

_INF = math.inf


class PadicError(ArithmeticError):
    pass


class PrimeMismatchError(PadicError):
    pass


class PrecisionError(PadicError):
    """Raised when an operation cannot retain even one significant digit."""


class DivisionByPrecisionZero(PadicError, ZeroDivisionError):
    """Raised when dividing by a scalar that is zero to working precision."""


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.cache
def is_prime(n: int) -> bool:
    """Trial division by _SMALL_PRIMES, then Miller-Rabin with them as
    witnesses, which is deterministic far beyond any prime used here."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _vp(n: int, p: int) -> int:
    """Exact p-valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicScalar:
    """Element of Q_p known to finite precision.

    Regular state: value = p^v * unit, unit a unit mod p^prec.
    Bottom state (v is None): zero to precision, valuation >= vbound.
    """

    __slots__ = ("p", "v", "unit", "prec", "vbound")

    def __init__(self, p, v, unit, prec, vbound=None, _checked=False):
        if not _checked:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if v is not None:
                if prec < 1:
                    raise PrecisionError("scalar with no significant digits")
                unit %= p ** prec
                if unit % p == 0:
                    raise ValueError("unit part divisible by p")
        self.p = p
        self.v = v
        self.unit = unit
        self.prec = prec
        self.vbound = vbound

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def bottom(cls, p, vbound=_INF):
        return cls(p, None, 0, 0, vbound=vbound, _checked=True)

    @classmethod
    def from_int(cls, n, p, prec=DEFAULT_PRECISION):
        if n == 0:
            return cls.bottom(p)
        v = _vp(n, p)
        return cls(p, v, (n // p ** v) % p ** prec, prec)

    @classmethod
    def from_fraction(cls, q, p, prec=DEFAULT_PRECISION):
        q = Fraction(q)
        if q == 0:
            return cls.bottom(p)
        vn = _vp(q.numerator, p)
        vd = _vp(q.denominator, p)
        un = q.numerator // p ** vn
        ud = q.denominator // p ** vd
        pk = p ** prec
        return cls(p, vn - vd, un * pow(ud, -1, pk) % pk, prec)

    @classmethod
    def coerce(cls, x, p, prec=DEFAULT_PRECISION):
        if isinstance(x, PadicScalar):
            if x.p != p:
                raise PrimeMismatchError(f"expected prime {p}, got {x.p}")
            return x
        if isinstance(x, int):
            return cls.from_int(x, p, prec)
        if isinstance(x, Fraction):
            return cls.from_fraction(x, p, prec)
        raise TypeError(f"cannot coerce {type(x).__name__} to PadicScalar")

    # ------------------------------------------------------------------
    # predicates / accessors

    @property
    def is_bottom(self):
        return self.v is None

    def valuation(self):
        if self.v is None:
            raise PrecisionError(
                f"valuation undetermined: zero to precision (>= {self.vbound})")
        return self.v

    def valuation_lower_bound(self):
        return self.vbound if self.v is None else self.v

    def lift(self):
        """Integer (or Fraction for negative valuation) representative."""
        if self.v is None:
            return 0
        if self.v >= 0:
            return self.unit * self.p ** self.v
        return Fraction(self.unit, self.p ** (-self.v))

    # ------------------------------------------------------------------
    # arithmetic

    def _check(self, other):
        prec = self.prec if self.prec >= 1 else DEFAULT_PRECISION
        return PadicScalar.coerce(other, self.p, prec)

    def __add__(self, other):
        other = self._check(other)
        p = self.p
        if self.v is None and other.v is None:
            return PadicScalar.bottom(p, min(self.vbound, other.vbound))
        if self.v is None or other.v is None:
            bot, x = (self, other) if self.v is None else (other, self)
            if bot.vbound == _INF:
                return x
            if x.v >= bot.vbound:
                raise PrecisionError(
                    "addition lost all significant digits "
                    f"(value scale {x.v}, noise bound {bot.vbound})")
            nprec = min(x.prec, bot.vbound - x.v)
            if nprec < 1:
                raise PrecisionError("addition lost all significant digits")
            return PadicScalar(p, x.v, x.unit, nprec)
        a, b = (self, other) if self.v <= other.v else (other, self)
        if a.v == b.v:
            nprec = min(a.prec, b.prec)
            s = (a.unit + b.unit) % p ** nprec
            if s == 0:
                return PadicScalar.bottom(p, a.v + nprec)
            t = _vp(s, p)
            return PadicScalar(p, a.v + t, s // p ** t, nprec - t)
        # v(a) < v(b): no cancellation
        shift = b.v - a.v
        abs_prec = min(a.v + a.prec, b.v + b.prec)
        nprec = abs_prec - a.v
        s = (a.unit + b.unit * p ** shift) % p ** nprec
        return PadicScalar(p, a.v, s, nprec)

    __radd__ = __add__

    def __neg__(self):
        if self.v is None:
            return self
        return PadicScalar(self.p, self.v, -self.unit % self.p ** self.prec,
                           self.prec, _checked=True)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        p = self.p
        if self.v is None or other.v is None:
            b1 = self.valuation_lower_bound()
            b2 = other.valuation_lower_bound()
            return PadicScalar.bottom(p, b1 + b2)
        nprec = min(self.prec, other.prec)
        return PadicScalar(p, self.v + other.v,
                           self.unit * other.unit % p ** nprec, nprec,
                           _checked=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def inv(self):
        if self.v is None:
            raise DivisionByPrecisionZero(
                f"division by zero-to-precision scalar (v >= {self.vbound})")
        p = self.p
        return PadicScalar(p, -self.v, pow(self.unit, -1, p ** self.prec),
                           self.prec, _checked=True)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if self.v is None:
            if k <= 0:
                raise DivisionByPrecisionZero("power of zero-to-precision scalar")
            return PadicScalar.bottom(self.p, self.vbound * k)
        if k == 0:
            return PadicScalar(self.p, 0, 1, self.prec, _checked=True)
        base = self if k > 0 else self.inv()
        p = self.p
        pk = p ** base.prec
        return PadicScalar(p, base.v * abs(k), pow(base.unit, abs(k), pk),
                           base.prec, _checked=True)

    # ------------------------------------------------------------------
    # comparisons

    def __eq__(self, other):
        try:
            other = self._check(other)
        except TypeError:
            return NotImplemented
        d = self - other
        if d.v is None:
            return True
        # equal up to shared precision only if the difference vanished
        return False

    def __hash__(self):
        raise TypeError("PadicScalar is not hashable (precision-dependent equality)")

    def __repr__(self):
        if self.v is None:
            if self.vbound == _INF:
                return f"O({self.p}^inf)"
            return f"O({self.p}^{self.vbound})"
        return f"{self.unit}*{self.p}^{self.v} + O({self.p}^{self.v + self.prec})"


def padic_log(u, prec=None):
    """Iwasawa-branch p-adic logarithm: log(p) = 0, torsion killed.

    The valuation of u is discarded (that is the branch) and the unit is
    taken to W = N + 8 + ceil(log_p(N + 8)) digits, or to all of its own
    when it has fewer, N = min(prec, u.prec); ``elliptic.iwasawa_log``
    takes its log in Q_p at W digits, and the answer claims at most N
    relative digits.  A unit with fewer than the 12 digits a Q_p element
    keeps (``fields._MIN_EFFECTIVE``) raises PrecisionError, and so do
    some units with 12 to 14 digits, whose log series (its 1/j and the
    p-power divisor) takes away digits below that floor.
    """
    # both modules import this one at load time
    from .elliptic import _intlog, iwasawa_log
    from .fields import QpField
    if u.v is None:
        raise DivisionByPrecisionZero("logarithm of zero-to-precision scalar")
    p = u.p
    N = min(u.prec if prec is None else prec, u.prec)
    W = min(u.prec, N + 8 + _intlog(N + 7, p) + 1)
    K = QpField(p, W)
    out = K.norm_to_qp(iwasawa_log(K.from_int(u.unit), W), N)
    if out.v is None:
        return PadicScalar.bottom(p, min(out.vbound, N))
    return out
