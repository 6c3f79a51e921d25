"""Deciding anabelomorphism of Kummer fields over Q_p.

Two p-adic fields containing zeta_p have topologically isomorphic
absolute Galois groups exactly when they have the same absolute degree
and the same maximal abelian subfield over Q_p.  For the Kummer family
Q_p(zeta_{p^r}, a^{1/p^r}) both invariants are decidable: the degree by
a p-th power test of the radicand in the cyclotomic level, and the
maximal abelian subfield (the cyclotomic level itself) by the
non-commutativity of the zeta- and root-directions.

The verdict is three-valued: UNDECIDED is preferred over guessing
whenever the certificate does not apply (non-rational radicands whose
Galois stability is not established).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import (DegreeDropError, TowerStep, _charpoly,
                     _classify_radicand, build_field, check_degree)
from .padic import PadicScalar, PrecisionError, _vp, is_prime

ANABELOMORPHIC = "ANABELOMORPHIC"
NOT_ANABELOMORPHIC = "NOT_ANABELOMORPHIC"
UNDECIDED = "UNDECIDED"

PEU = "PEU"
TRES = "TRES"


@dataclass(frozen=True)
class KummerFieldSpec:
    """Q_p(zeta_{p^r}, radicand^(1/p^r)); radicand None means the bare
    cyclotomic field Q_p(zeta_{p^r})."""
    p: int
    r: int
    radicand: object = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.p == 2 and self.r == 1:
            raise ValueError("spec p=2 r=1 is out of scope: r >= 2 at p = 2, "
                             "where zeta_2 = -1 lies in Q_2")
        if isinstance(self.radicand, (int, Fraction)) and self.radicand == 0:
            raise ValueError("radicand must be nonzero")

    @property
    def modulus(self):
        return self.p ** self.r

    def cyclotomic_degree(self):
        return self.modulus - self.modulus // self.p

    def degree(self):
        """The absolute degree of the tower, when its Kummer step keeps
        its full degree."""
        full = self.modulus if self.radicand is not None else 1
        return self.cyclotomic_degree() * full

    def tower_steps(self):
        steps = [TowerStep.cyclotomic(self.modulus)]
        if self.radicand is not None:
            steps.append(TowerStep.kummer(self.modulus, self.radicand))
        return steps

    def build(self, prec=None):
        return build_field(self.p, self.tower_steps(), prec=prec)

    def describe(self):
        if self.radicand is None:
            return f"Q_{self.p}(zeta_{self.modulus})"
        return f"Q_{self.p}(zeta_{self.modulus}, ({self.radicand})^(1/{self.modulus}))"


@dataclass
class AnabelomorphismVerdict:
    status: str
    degree1: int = 0
    degree2: int = 0
    k0_label1: str = ""
    k0_label2: str = ""
    reason: str = ""

    def to_dict(self):
        return {
            "status": self.status,
            "degrees": [self.degree1, self.degree2],
            "maximal_abelian_subfields": [self.k0_label1, self.k0_label2],
            "reason": self.reason,
        }


def _radicand_is_pth_power(spec, prec=None):
    """True if the radicand is a p-th power in Q_p(zeta_{p^r})."""
    F = build_field(spec.p, [TowerStep.cyclotomic(spec.modulus)], prec=prec)
    return _classify_radicand(F, F.coerce(spec.radicand))[0] == "drop"


def _certify(spec, prec=None):
    """(degree, k0_label or None, reason fragment)."""
    p = spec.p
    if spec.radicand is None:
        return (spec.cyclotomic_degree(),
                f"Q_{p}(zeta_{spec.modulus})", "cyclotomic (abelian)")
    rational = isinstance(spec.radicand, (int, Fraction))
    # x^(p^r) - a is irreducible over F = Q_p(zeta_(p^r)) exactly when a is
    # not a p-th power in F (Lang, Algebra, VI 9 Thm 9.1); the exception
    # a in -4 F^4 at p = 2 is no exception here, since r >= 2 puts zeta_4
    # in F and -4 = (1 + zeta_4)^4
    if _radicand_is_pth_power(spec, prec=prec):
        raise DegreeDropError(
            f"radicand {spec.radicand} is a p-th power in the cyclotomic "
            "level: the Kummer step drops degree")
    degree = spec.degree()
    if not rational:
        # zeta -> zeta^a moves the radicand; Galois stability over Q_p is
        # not certified, so the maximal abelian subfield stays unlabelled
        return degree, None, "non-rational radicand: K0 undecided"
    # non-abelian certificate: sigma_a tau sigma_a^{-1} = tau^a != tau for
    # some a, i.e. sigma_a fixes the Kummer direction only for a = 1
    nonabelian = spec.modulus > 2
    label = f"Q_{p}(zeta_{spec.modulus})" if nonabelian else None
    return degree, label, "full Kummer degree, nonabelian action"


def jarden_ritter(spec1, spec2, prec=None):
    """Anabelomorphism verdict for two Kummer field specifications.

    Same absolute degree and same maximal abelian subfield give
    ANABELOMORPHIC; a certified mismatch gives NOT_ANABELOMORPHIC;
    anything short of a certificate is UNDECIDED.  A spec whose tower
    degree exceeds the budget is refused with ``build_field``'s error
    (``check_degree``) before anything is built.
    """
    if spec1.p != spec2.p:
        return AnabelomorphismVerdict(
            NOT_ANABELOMORPHIC, reason="residue characteristic differs "
            f"({spec1.p} vs {spec2.p})")
    for spec in (spec1, spec2):
        check_degree(spec.degree())
    if spec1 == spec2:
        d, label, _ = _certify(spec1, prec=prec)
        return AnabelomorphismVerdict(
            ANABELOMORPHIC, d, d, label or spec1.describe(),
            label or spec2.describe(), "identical specifications")
    d1, l1, why1 = _certify(spec1, prec=prec)
    d2, l2, why2 = _certify(spec2, prec=prec)
    if d1 != d2:
        return AnabelomorphismVerdict(
            NOT_ANABELOMORPHIC, d1, d2, l1 or "?", l2 or "?",
            f"absolute degrees differ: {d1} != {d2}")
    if l1 is not None and l2 is not None:
        if l1 == l2:
            return AnabelomorphismVerdict(
                ANABELOMORPHIC, d1, d2, l1, l2,
                f"equal degree {d1} and equal maximal abelian subfield {l1}")
        return AnabelomorphismVerdict(
            NOT_ANABELOMORPHIC, d1, d2, l1, l2,
            "maximal abelian subfields differ")
    return AnabelomorphismVerdict(
        UNDECIDED, d1, d2, l1 or "?", l2 or "?",
        "; ".join(w for w in (why1, why2) if "undecided" in w) or
        "maximal abelian subfield not certified")


def partition_classes(specs, prec=None):
    """Partition specs into anabelomorphism classes by pairwise testing.

    Returns (classes, flags): classes is a list of lists of indices into
    ``specs``; flags[i] is True when spec i stayed a singleton only
    because some comparison was UNDECIDED.
    """
    n = len(specs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    undecided = [False] * n
    for i in range(n):
        for j in range(i + 1, n):
            verdict = jarden_ritter(specs[i], specs[j], prec=prec)
            if verdict.status == ANABELOMORPHIC:
                parent[find(i)] = find(j)
            elif verdict.status == UNDECIDED:
                undecided[i] = undecided[j] = True
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    classes = sorted(groups.values(), key=lambda g: g[0])
    flags = [len(groups[find(i)]) == 1 and undecided[i] for i in range(n)]
    return classes, flags


def peu_tres_classify(spec):
    """PEU if the radicand valuation over the maximal unramified
    subextension is divisible by p, TRES otherwise (r = 1 scope)."""
    if spec.r != 1:
        raise ValueError("peu/tres classification applies to r = 1")
    if spec.radicand is None:
        raise ValueError("no Kummer radicand to classify")
    if isinstance(spec.radicand, (int, Fraction)):
        q = Fraction(spec.radicand)
        v = _vp(q.numerator, spec.p) - _vp(q.denominator, spec.p)
    else:
        raise ValueError("radicand is not in the unramified level")
    return PEU if v % spec.p == 0 else TRES


# ----------------------------------------------------------------------
# rationalization via Krasner's lemma


def krasner_rationalize(coeffs, height_bound=10 ** 60):
    """Replace a monic p-adic polynomial by a nearby rational one that
    generates the same completion.

    ``coeffs``: PadicScalar coefficients, low degree first, including the
    leading 1.  Closeness beyond deg * (pairwise root distance bound)
    forces every root of the output to single out a unique root of the
    input within Krasner range, so the generated fields agree.

    Returns (integer coefficient list, certificate dict).
    """
    if not coeffs:
        raise ValueError("empty polynomial")
    lead = coeffs[-1]
    if (lead.is_bottom or lead.valuation() != 0
            or (lead.unit - 1) % lead.p ** lead.prec):
        raise ValueError("polynomial must be monic: leading coefficient "
                         "is not 1 to its precision")
    p = lead.p
    deg = len(coeffs) - 1
    for c in coeffs[:-1]:
        if not c.is_bottom and c.valuation() < 0:
            raise ValueError("coefficients must be integral")
    avail = min(c.prec + c.valuation() for c in coeffs if not c.is_bottom)
    # the integer lifts agree with the coefficients mod p^m (a bottom
    # coefficient is only known to vanish mod p^vbound)
    m = min([avail] + [c.vbound for c in coeffs if c.is_bottom])
    vdisc = _disc_valuation([c.lift() for c in coeffs], p, m)
    if vdisc is None:
        raise PrecisionError("discriminant is zero to precision: "
                             "polynomial not separable at this precision")
    root_bound = Fraction(vdisc, 2)       # v(r_i - r_j) <= v(disc)/2
    threshold = deg * root_bound
    floor_target = int(threshold) + 2     # strictly exceeds the threshold
    if avail < floor_target:
        raise PrecisionError(
            "coefficients are not known beyond the Krasner threshold")
    out = []
    attained = []
    for c in coeffs:
        if c.is_bottom:
            out.append(0)
            attained.append(c.vbound)
            continue
        lift = None
        for target in (max(avail, floor_target), floor_target):
            pk = p ** target
            cand = (c.unit * p ** c.valuation()) % pk
            if cand > pk // 2:
                cand -= pk
            if abs(cand) <= height_bound:
                lift = cand
                break
        if lift is None:
            raise ValueError(
                f"no rational approximant of height <= {height_bound} at "
                f"the required closeness p^{floor_target}")
        diff = c - PadicScalar.from_int(lift, p, c.prec) if lift else c
        attained.append(diff.vbound if diff.is_bottom else diff.valuation())
        out.append(lift)
    att = min(attained)
    if not att > threshold:
        raise ArithmeticError("achieved closeness does not exceed the threshold")
    # p^(vdisc+1) certifies equality; zero to it means a larger valuation
    vdisc_out = _disc_valuation(out, p, vdisc + 1)
    cert = {
        "p": p,
        "degree": deg,
        "root_distance_bound": root_bound,
        "threshold": threshold,
        "attained_closeness": att,
        "disc_valuation_input": vdisc,
        "disc_valuation_output": vdisc_out,
        "disc_valuations_match": vdisc_out == vdisc,
    }
    if not cert["disc_valuations_match"]:
        raise ArithmeticError(
            "discriminant valuation changed under rationalization: "
            f"{vdisc} -> {f'> {vdisc}' if vdisc_out is None else vdisc_out}")
    return out, cert


def _disc_valuation(coeffs, p, m):
    """v_p of res(f, f') for the integer polynomial f (low degree first,
    leading coefficient included) known mod p^m; None when the resultant
    is zero mod p^m.  Up to a unit this is v_p(disc f) for monic f.

    The resultant is the determinant of the Sylvester matrix, +-c_N of
    its characteristic polynomial (``_charpoly`` over Z/p^m, exact)."""
    n = len(coeffs) - 1
    df = [i * coeffs[i] for i in range(1, n + 1)]
    sylvester = ([[0] * i + coeffs + [0] * (n - 2 - i) for i in range(n - 1)]
                 + [[0] * i + df + [0] * (n - 1 - i) for i in range(n)])
    if not sylvester:           # a constant f: the empty determinant is 1
        return 0
    pm = p ** m
    c = _charpoly([[(a,) for a in row] for row in sylvester],
                  lambda u, v, pm: (u[0] * v[0] % pm,), pm)
    det = c[-1][0]
    return _vp(det, p) if det else None
