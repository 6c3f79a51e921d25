"""Print one SHA-256 over seeded arithmetic results on a set of towers.

    python3 tools/parity.py [--checkout DIR] [--verbose]

Two checkouts whose digests are equal compute bit-identical values, so the
script is the gate for a change to the arithmetic kernels that must not
change any answer.  It imports ``anabelomorph`` from ``DIR/src`` (by
default the repository that holds this script) and builds about thirty
towers covering every layer kind and builder branch (cyclotomic, Kummer
ramified and unramified, custom: quadratic ramified and unramified, and
certified by its Newton polygon) at p in
{2, 3, 5, 7}, with layers of degree 2, 3, 5 and 7 over bases that are not
Q_p.  On every layer of every tower it hashes the layer's certificate data,
(kind, e, f, frame scale, frame weight, layer_diff, different_val,
certificate, and the (vec, s, m) of the uniformizer pi), so that a change
of uniformizer shows on its own tower.  At the working precision M and at
M/2 it also hashes the (vec, s, m) of:

  * products and squares of dense, half-dense and one-block operands,
    and kernel products of unreduced (negative and >= p^m) vectors;
  * the products k x, k in {-1, 2, p, 3p}, and x / p of those operands
    by numbers, which scale the coordinates;
  * conjugates (cyclotomic and Kummer layers), layer cofactors and norms;
  * inverses (or the name of the error an inverse raises);
  * ``from_zeta_poly`` of random zeta-polynomials;
  * the (v, bound, residue) of the frame walks of the dense, half-dense
    and one-block operands, here and at min(M, 40) digits, a width at
    which the walks' products by the frame constants go through their
    matrices.

On every Galois tower (cyclotomic(p^r), bare or followed by
kummer(p^r, rational)) it also hashes the sorted (a, b, i) triples of
``ramification_filtration``, so the Galois action and the filtration
are covered too; the conductor report read from the filtration:
``different_from_filtration``, ``breaks``, ``upper_numbering_breaks``,
``wild_subgroup_conductor``, ``order_at(i)`` for every i up to the
largest i(sigma), and the Artin and Swan conductors of
``conductor_discriminant_check``; and the (vec, s, m) of
``l_invariant(p (1 + pi))``, which covers the logarithm.  A tower of
another shape raises ``NonGaloisTowerError`` and is skipped here.

The kernel of four integer layers (on Q_p) is also run at a modulus p^m
wide enough for dense products to take the Karatsuba route: Q_5(zeta_25)
at 5^788, Q_3(zeta_9) at 3^1200, Q_2(zeta_8) at 2^1600 and Q_3(zeta_27)
at 3^700, on dense, half-dense and one-entry operands, with reduced and
with unreduced entries.  The layer cofactors and norms of dense and
one-block operands are hashed, at M and at M/2, on both layers of
Q_5(zeta_25)((5 2^25)^(1/5)) at M = 788: the first two layers of the
degree-500 tower of ``disc "p=5 r=2 rad=5*2^25"``, whose cyclotomic base
multiplies through the Karatsuba route.

The p-adic logarithm is covered by the (v, unit, prec), or the valuation
bound of a bottom, of ``padic_log`` on the units of
``demos/log_invariant.py`` and on ``PLOG_PAIRS`` seeded pairs u, w and
their product uw per prime p in {2, 3, 5, 7}, shaped like the ``plog``
items of the benchmark's ``invariants`` workload (units below p^6, prime
to p, 40 digits, prec 16); and by the (vec, s, m) of
``l_invariant(p (1 + pi))`` and of its square on the eleven towers of
that workload (``LOG_TOWERS``).  On the same towers it hashes the
(vec, s, m) of ``iwasawa_log`` of u, u pi and u pi^(e/p), and of
``l_invariant(p u pi)``, for u = -1 + pi: a residue other than 1 at odd
p, and valuations off the multiples of e, with gcd(e, v) prime to p
(v = 1 and e + 1) and a multiple of p when p^2 | e.

Tate's algorithm is covered by the quadruple and the full
``ReductionData.trace`` of ``tate_algorithm`` (or the name of the error
it raises) on: the golden additive rows of
``tests/test_table_regression.py`` over both degree-54 towers
Q_3(zeta_9, 3^(1/9)) and Q_3(zeta_9, 4^(1/9)), each as given and under
the fixed coordinate change ``TATE_RST``; the Kodaira sweep over Q_5 and
the known curves over Q_p of ``tests/test_elliptic.py``; curves over
the unramified quadratic extension of Q_2 (f = 2), one of each additive
type among them; and three models whose non-minimality is hidden from
the integral scaling (``TATE_HIDE``), over Q_5, Q_2(5^(1/2)) and
Q_3(zeta_9, 4^(1/9)), so that every read and translation of a pass is
taken after restarts.  On each curve of these eleven towers (the hidden
ones as given) it also hashes the model's v(Delta) and v(j), and the
(vec, s, m, exact) and v(Delta) of its coefficients under the coordinate
change by ``TATE_RST``, or by the integers ``MODEL_RST`` on a tower
without a cyclotomic layer, which ``WeierstrassModel`` and
``change_coords`` compute in the lowest layer that holds them.

When ``tools/parity.sha256`` exists, a digest that differs from the one it
holds prints both and exits 1; a change that alters arithmetic on purpose
commits the new digest there.  ``--verbose`` also prints one digest per
tower, to localise a mismatch, and next to it the headroom m - s of
each layer's uniformizer pi, from Q_p up, on every tower it builds; the
headrooms are printed only, not hashed.  Stdlib only; most of a run is
Tate's algorithm over the degree-54 towers.
"""

import argparse
import ast
import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
EXPECTED = HERE / "tools" / "parity.sha256"

# integer layers and a wide modulus: name -> (p, cyclotomic modulus, m)
WIDE = {
    "wide cyclo 25 at 5^788": (5, 25, 788),
    "wide cyclo 9 at 3^1200": (3, 9, 1200),
    "wide cyclo 8 at 2^1600": (2, 8, 1600),
    "wide cyclo 27 at 3^700": (3, 27, 700),      # d = 18 halves to 9: odd
}


# (x, y) -> (x + r, y + s x + t) applied to every golden additive row, as
# zeta-polynomials {exponent: coefficient}
TATE_RST = ({0: 1, 1: -2}, {2: 1}, {0: -1, 3: 2})
# r, s, t of the hashed coordinate change over a tower without zeta
MODEL_RST = (3, -2, 5)

# a-invariants over Q_p: the Kodaira sweep over Q_5, then the known curves
TATE_QP = [(5, c) for c in (
    (0, 0, 0, 0, 5), (0, 0, 0, 5, 0), (0, 0, 0, 0, 25), (0, 0, 0, 25, 0),
    (0, 0, 0, -3 * 25, 7 * 125), (0, 0, 0, -3 * 25, 27 * 125),
    (0, 0, 0, -3 * 25, 127 * 125), (0, 0, 0, 125, 625),
    (0, 0, 0, 125, 5 ** 5), (0, 0, 0, 5 ** 4, 5 ** 5))] + [
    (5, (0, 0, 0, 1, 1)), (11, (0, -1, 1, -10, -20)), (37, (0, 0, 1, -1, 0)),
    (3, (0, 0, 1, 0, -7)), (2, (0, 0, 0, -1, 0))]

# hidden non-minimal models: the model is scaled by u = pi^-TATE_HIDE,
# then moved by the units r = 1 + pi, s = -1 and t = 1 + pi^2, so that no
# common pi-power is left to strip and each power of pi costs one restart
TATE_HIDE = 2

# a-invariants over Q_2(5^(1/2)), unramified of degree 2 (f = 2): the
# curves of the base-change tests, then one of each additive type
TATE_F2 = [(1, 0, 0, 0, 16), (0, 0, 0, -1, 0), (1, 1, 1, -10, -10),
           (1, 1, 0, 0, 16), (0, 0, 0, 16, 0), (0, 0, 0, 0, 64),
           (0, 0, 4, 0, 4), (0, 1, 0, 0, 4), (2, 2, 8, 16, 32),
           (0, 0, 0, 0, 4), (0, 0, 0, 8, 0), (0, 0, 0, 0, 32)]

# the towers of the benchmark's invariants workload (bench/gen.py,
# INVARIANT_TOWERS) as (p, r, radicand): Q_p(zeta_(p^r), radicand^(1/p^r))
LOG_TOWERS = ([(p, 1, p) for p in (3, 5, 7)]
              + [(p, 1, 1 + p) for p in (3, 5, 7)]
              + [(3, 2, 3), (3, 2, 4), (2, 2, 2), (2, 2, 5), (2, 3, 3)])

# padic_log calls of demos/log_invariant.py: (p, n, digits of the scalar,
# prec); then PLOG_PAIRS seeded plog-shaped pairs per prime (log_calls)
DEMO_LOGS = [(3, 4, 40, 12), (3, 9, 40, None), (3, 7, 40, 16),
             (3, 5, 40, 16), (3, 35, 40, 16)]
PLOG_PAIRS = 20
# the digits of the narrow walks of tower_digest
WALK_DIGITS = 40


def towers(T):
    """name -> (p, steps)."""
    return {
        "cyclo 4": (2, [T.cyclotomic(4)]),
        "cyclo 8": (2, [T.cyclotomic(8)]),
        "cyclo 16": (2, [T.cyclotomic(16)]),      # units C2 x C4
        "kummer Q_2 eisenstein": (2, [T.kummer(2, 2)]),
        "kummer Q_2 unramified": (2, [T.kummer(2, 5)]),
        "kummer Q_2(i) d=2": (2, [T.cyclotomic(4), T.kummer(2, 3)]),
        "kummer Q_2(i) 5^(1/4)": (2, [T.cyclotomic(4), T.kummer(4, 5)]),
        "kummer Q_2(i) 3^(1/4)": (2, [T.cyclotomic(4), T.kummer(4, 3)]),
        "custom Q_2(i) d=3": (2, [T.cyclotomic(4), T.custom([-2, 0, 0])]),
        "cyclo 3": (3, [T.cyclotomic(3)]),
        "cyclo 9": (3, [T.cyclotomic(9)]),
        "degree 54": (3, [T.cyclotomic(9), T.kummer(9, 4)]),
        "kummer Q_3(zeta_9) 3^(1/9)": (3, [T.cyclotomic(9), T.kummer(9, 3)]),
        "kummer Q_3 unramified": (3, [T.cyclotomic(3),
                                      T.kummer(3, {0: 2, 1: -3})]),
        "quad Q_3 ramified": (3, [T.custom([-3, 3])]),
        "quad Q_3 unramified": (3, [T.custom([-18, 0])]),
        "quad Q_3(zeta_3)": (3, [T.cyclotomic(3), T.custom([-2, 0])]),
        "custom Q_3": (3, [T.custom([-3, 3, 0])]),
        "custom Q_3 fraction": (3, [T.custom([Fraction(-3, 2), 3, 0])]),
        "custom Q_3(zeta_3) zeta-poly": (3, [T.cyclotomic(3),
                                             T.custom([{0: 1, 1: -1}, 0, 0])]),
        "custom Q_3 x^3-9": (3, [T.custom([-9, 0, 0])]),          # slope 2/3
        "cyclo 5": (5, [T.cyclotomic(5)]),
        "cyclo 25": (5, [T.cyclotomic(25)]),
        "kummer Q_5(zeta_5) 5^(1/5)": (5, [T.cyclotomic(5), T.kummer(5, 5)]),
        "kummer Q_5(zeta_5) 6^(1/5)": (5, [T.cyclotomic(5), T.kummer(5, 6)]),
        "kummer Q_5 unramified": (5, [T.cyclotomic(5),
                                      T.kummer(5, {0: 2, 1: 5})]),
        "quad Q_5 ramified": (5, [T.custom([-5, 5])]),
        "quad Q_5 unramified": (5, [T.custom([2, 1])]),
        "custom Q_5(zeta_5)": (5, [T.cyclotomic(5), T.custom([-5, 0, 0])]),
        "custom Q_5 x^5-25": (5, [T.custom([-25, 0, 0, 0, 0])]),  # slope 2/5
        "cyclo 7": (7, [T.cyclotomic(7)]),
        "kummer Q_7(zeta_7) 7^(1/7)": (7, [T.cyclotomic(7), T.kummer(7, 7)]),
        "kummer Q_7(zeta_7) 2^(1/7)": (7, [T.cyclotomic(7), T.kummer(7, 2)]),
        "kummer Q_7 unramified": (7, [T.cyclotomic(7),
                                      T.kummer(7, {0: 6, 1: -7})]),
        "quad Q_7(zeta_7)": (7, [T.cyclotomic(7), T.custom([-3, 0])]),
        "custom Q_7": (7, [T.custom([-7, 0, 7])]),
    }


def wide_cofactor_towers(T):
    """name -> (p, steps, prec) of the towers whose layer cofactors are
    hashed at a wide modulus."""
    return {
        # prec = 532 gives M = 788, the degree-500 tower's working precision
        "cofactors Q_5(zeta_25)((5 2^25)^(1/5)) at M=788":
            (5, [T.cyclotomic(25), T.kummer(5, 5 * 2 ** 25)], 532),
    }


def operands(fld, rng, pm):
    """Dense, half-dense and one-block vectors of a layer: a block is one
    base element (one coefficient over Q_p)."""
    b = fld.base.n
    d = fld.d

    def with_blocks(keep):
        return [rng.randrange(pm) if i // b in keep else 0
                for i in range(fld.n)]
    half = set(rng.sample(range(d), (d + 1) // 2))
    return [with_blocks(set(range(d))), with_blocks(half),
            with_blocks({rng.randrange(d)})]


def layer_values(F, fld, m, rng):
    """Every hashed value of one layer at precision m, in a fixed order."""
    p, pm = fld.p, fld.p ** m
    out = []

    def record(label, fn):
        try:
            x = fn()
        except (ArithmeticError, ValueError) as exc:
            x = type(exc).__name__
        out.append((label, x))

    def key(x):
        return (x.vec, x.s, x.m)

    def norm(x):
        nint, s, mn = fld.norm_tower(x)
        return (nint % p ** mn, s, mn)

    elems = [F.FieldElement(fld, v, rng.randrange(2), m)
             for v in operands(fld, rng, pm)]
    for i, x in enumerate(elems):
        record(f"square {i}", lambda: key(x * x))
        for j in range(i, len(elems)):
            record(f"product {i} {j}", lambda: key(x * elems[j]))
        for k in (-1, 2, p, 3 * p):
            record(f"scalar {k} {i}", lambda: key(k * x))
        record(f"over p {i}", lambda: key(x * Fraction(1, p)))
        record(f"norm {i}", lambda: norm(x))
        record(f"inverse {i}", lambda: key(x.inv()))
        if hasattr(fld, "_conjugates"):
            record(f"conjugates {i}",
                   lambda: list(fld._conjugates(x.vec, m)))
        record(f"cofactor {i}", lambda: fld._layer_cofactor(x.vec, m))
    xu, yu = ([rng.randrange(-pm, 2 * pm) for _ in range(fld.n)]
              for _ in range(2))
    record("unreduced", lambda: fld._mul_mod(xu, yu, pm))
    for _ in range(2):
        poly = {rng.randrange(60): rng.randrange(-p ** 3, p ** 3)
                for _ in range(rng.randint(1, 6))}
        record(f"zeta poly {sorted(poly.items())}",
               lambda: key(fld.from_zeta_poly(poly)))
    return out + walk_values(elems)


def walk_values(elems):
    """The (v, bound, residue) of a frame walk of each element, or the
    name of the error the walk raises."""
    out = []
    for x in elems:
        try:
            out.append(x.field._val(x.vec, x.s, x.m, True))
        except (ArithmeticError, ValueError) as exc:
            out.append(type(exc).__name__)
    return out


def wide_digest(F, name, p, modulus, m):
    """Kernel products of one integer layer at p^m, reduced operands first,
    then unreduced ones (entries in [-p^m, 2 p^m))."""
    fld = F.build_field(p, [F.TowerStep.cyclotomic(modulus)])
    pm = p ** m
    rng = random.Random(name)
    out = []
    for shift in (0, pm):
        vecs = [[c - shift if c else 0 for c in v]
                for v in operands(fld, rng, pm + 2 * shift)]
        for i, x in enumerate(vecs):
            for j in range(i, len(vecs)):
                out.append((i, j, shift, fld._mul_mod(x, vecs[j], pm)))
    return hashlib.sha256(repr(out).encode()).hexdigest()


def cofactor_digest(F, name, p, steps, prec):
    """(digest, headroom) of the layer cofactors and norms of dense and
    one-block operands on every layer of one tower, at M and at M/2."""
    K = F.build_field(p, steps, prec)
    out = []
    for fld in reversed(K.layers[1:]):
        for m in (fld.M, fld.M // 2):
            rng = random.Random(f"{name}|{fld.name}|{m}")
            vecs = operands(fld, rng, fld.p ** m)
            out.append((fld.name, m, [fld._layer_cofactor(v, m)
                                      for v in vecs[::2]]))
    return hashlib.sha256(repr(out).encode()).hexdigest(), headroom(K)


def golden_additive_rows():
    """The a-invariants (zeta-polynomials) of the golden additive rows."""
    path = HERE / "tests" / "test_table_regression.py"
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "ADDITIVE_ROWS"):
            return [row[0] for row in ast.literal_eval(node.value)]
    raise SystemExit(f"no ADDITIVE_ROWS in {path}")


def headroom(fld):
    """The headroom m - s of each layer's pi, from Q_p up."""
    return [L.pi.m - L.pi.s for L in fld.layers[1:]]


def tate_digest(F, E, p, steps, curves, rst=None, hide=0):
    """(digest, headroom, model digest) of the quadruple and trace of
    Tate's algorithm on each curve over the tower, and with ``rst`` also
    under that coordinate change; with ``hide``, on the model hidden
    non-minimal by pi^hide instead.  The model digest is that of
    ``model_values`` on each curve."""
    K = F.build_field(p, steps)
    models = hashlib.sha256()
    for coeffs in curves:
        models.update(repr((coeffs, model_values(E, K, coeffs))).encode())
    h = hashlib.sha256()
    for coeffs in curves:
        for change in (None, rst) if rst else (None,):
            try:
                model = E.WeierstrassModel.from_a_invariants(K, *coeffs)
                if change:
                    model = E.change_coords(
                        model, 1, *(K.from_zeta_poly(c) for c in change))
                if hide:
                    model = E.change_coords(
                        E.change_coords(model, u=K.pi_pow(-hide)),
                        r=K.one() + K.pi, s=-K.one(),
                        t=K.one() + K.pi_pow(2))
                rd = E.tate_algorithm(model)
                x = (rd.quadruple(), rd.trace)
            except ArithmeticError as exc:
                x = type(exc).__name__
            h.update(repr((coeffs, change, x)).encode())
    return h.hexdigest(), headroom(K), models.hexdigest()


def model_values(E, K, coeffs):
    """The v(Delta) and v(j) of the model of ``coeffs`` over K, and the
    (vec, s, m, exact) and v(Delta) of the model under the coordinate
    change by ``TATE_RST`` (its integer values ``MODEL_RST`` on a tower
    without a cyclotomic layer); or the name of the error raised."""
    try:
        model = E.WeierstrassModel.from_a_invariants(K, *coeffs)
        try:
            rst = [K.from_zeta_poly(c) for c in TATE_RST]
        except ArithmeticError:
            rst = MODEL_RST
        new = E.change_coords(model, 1, *rst)
        return (model.vdisc, E._v_j(model), new.vdisc,
                [(a.vec, a.s, a.m, a.exact) for a in new.coefficients()])
    except ArithmeticError as exc:
        return type(exc).__name__


def tate_towers(T):
    """name -> (p, steps, curves, coordinate change or None[, hide])."""
    rows = golden_additive_rows()
    out = {f"tate golden additive over Q_3(zeta_9, {rad}^(1/9))":
           (3, [T.cyclotomic(9), T.kummer(9, rad)], rows, TATE_RST)
           for rad in (3, 4)}
    for q in sorted({q for q, _ in TATE_QP}):
        out[f"tate Q_{q}"] = (q, [], [c for p, c in TATE_QP if p == q], None)
    out["tate Q_2(5^(1/2))"] = (2, [T.kummer(2, 5)], TATE_F2, None)
    hidden = {"Q_5 I2*": (5, [], (0, 0, 0, -3 * 25, 27 * 125)),
              "Q_2(5^(1/2)) I4": (2, [T.kummer(2, 5)], (1, 1, 0, 0, 16)),
              "Q_3(zeta_9, 4^(1/9)) I0*": (
                  3, [T.cyclotomic(9), T.kummer(9, 4)], (0, 3, 0, 0, 9))}
    for name, (p, steps, coeffs) in hidden.items():
        out[f"tate hidden by pi^{TATE_HIDE} over {name}"] = (
            p, steps, [coeffs], None, TATE_HIDE)
    return out


def log_calls():
    """The padic_log calls hashed: the demo's, then for each p the units
    u, w and uw of PLOG_PAIRS seeded pairs of units below p^6."""
    calls = list(DEMO_LOGS)
    for p in (2, 3, 5, 7):
        rng = random.Random(f"plog {p}")
        units = [x for x in range(1, p ** 6) if x % p]
        for _ in range(PLOG_PAIRS):
            u, w = rng.choice(units), rng.choice(units)
            calls += [(p, u, 40, 16), (p, w, 40, 16), (p, u * w, 40, 16)]
    return calls


def padic_log_digest(P):
    """The (v, unit, prec), or the bound of a bottom, of every padic_log
    call of ``log_calls``."""
    out = []
    for p, n, digits, prec in log_calls():
        r = P.padic_log(P.PadicScalar.from_int(n, p, digits), prec)
        out.append((p, n, prec, (r.v, r.unit, r.prec) if r.v is not None
                    else ("bottom", r.vbound)))
    return hashlib.sha256(repr(out).encode()).hexdigest()


def l_invariant_digest(F, E, p, r, rad):
    """(digest, headroom) of l(q) and l(q^2), q = p (1 + pi), and of the
    logs of u, u pi, u pi^(e/p) and l(p u pi), u = -1 + pi, over
    Q_p(zeta_(p^r), rad^(1/p^r))."""
    T = F.TowerStep
    K = F.build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, rad)])
    q = K.from_int(p) * (K.one() + K.pi)
    u = K.from_int(-1) + K.pi
    logs = [E.l_invariant(q), E.l_invariant(q * q)]
    logs += [E.iwasawa_log(u * K.pi_pow(k)) for k in (0, 1, K.e // p)]
    logs.append(E.l_invariant(K.from_int(p) * u * K.pi))
    out = [(x.vec, x.s, x.m) for x in logs]
    return hashlib.sha256(repr(out).encode()).hexdigest(), headroom(K)


def conductor_report(G, K, filt):
    """The invariants read from the filtration of the Galois tower K and
    its Artin and Swan conductors."""
    rep = G.conductor_discriminant_check(K)
    return [G.different_from_filtration(filt), filt.breaks,
            [str(u) for u in G.upper_numbering_breaks(filt)],
            G.wild_subgroup_conductor(filt),
            [filt.order_at(i) for i in range(max(filt.i_values.values()) + 1)],
            sorted(rep["conductors"].items()), sorted(rep["swan"].items())]


def tower_digest(F, G, E, name, p, steps):
    """(digest, headroom) of one tower; no headroom when it fails to
    build."""
    h = hashlib.sha256()
    try:
        K = F.build_field(p, steps)
    except ArithmeticError as exc:      # a build that fails is a value too
        h.update(type(exc).__name__.encode())
        return h.hexdigest(), None
    heads = headroom(K)
    try:
        filt = G.ramification_filtration(K)
    except G.NonGaloisTowerError:
        pass
    else:
        h.update(repr(sorted((s.a, s.b, i)
                             for s, i in filt.i_values.items())).encode())
        h.update(repr(conductor_report(G, K, filt)).encode())
        li = E.l_invariant(K.from_int(p) * (K.one() + K.pi))
        h.update(repr((li.vec, li.s, li.m)).encode())
    for fld in reversed(K.layers[1:]):
        h.update(repr((fld.kind, fld.e, fld.f, *fld.frame[2:],
                       fld.layer_diff, fld.different_val, fld.certificate,
                       fld.pi.vec, fld.pi.s, fld.pi.m)).encode())
        for m in (fld.M, fld.M // 2):
            rng = random.Random(f"{name}|{fld.name}|{m}")
            h.update(repr((fld.name, m, layer_values(F, fld, m, rng))).encode())
        # walks at a width where products by the frame constants take
        # their matrices
        m = min(fld.M, WALK_DIGITS)
        rng = random.Random(f"{name}|{fld.name}|walk {m}")
        elems = [F.FieldElement(fld, v, rng.randrange(2), m)
                 for v in operands(fld, rng, fld.p ** m)]
        h.update(repr((fld.name, m, walk_values(elems))).encode())
    return h.hexdigest(), heads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=HERE)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)
    # the import must leave no bytecode in the checkout, which would skew
    # a later benchmark run there; under -I, as CI runs this script,
    # Python ignores PYTHONDONTWRITEBYTECODE
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    import anabelomorph.fields as F
    import anabelomorph.galois as G
    import anabelomorph.elliptic as E
    import anabelomorph.padic as P

    total = hashlib.sha256()
    table = towers(F.TowerStep)
    digests = [(name, *tower_digest(F, G, E, name, p, steps))
               for name, (p, steps) in table.items()]
    digests += [(name, wide_digest(F, name, *spec), None)
                for name, spec in WIDE.items()]
    wide_cofactors = wide_cofactor_towers(F.TowerStep)
    digests += [(name, *cofactor_digest(F, name, *spec))
                for name, spec in wide_cofactors.items()]
    tate = tate_towers(F.TowerStep)
    for name, spec in tate.items():
        digest, heads, models = tate_digest(F, E, *spec)
        digests += [(name, digest, heads), (f"models of {name}", models, None)]
    digests.append(("padic_log calls", padic_log_digest(P), None))
    digests += [(f"l_invariant over Q_{p}(zeta_{p ** r}, {rad}^(1/{p ** r}))",
                 *l_invariant_digest(F, E, p, r, rad))
                for p, r, rad in LOG_TOWERS]
    for name, digest, heads in digests:
        total.update(f"{name}:{digest}\n".encode())
        if args.verbose:
            pis = ("  [pi m-s " + " ".join(map(str, heads)) + "]"
                   if heads else "")
            print(f"{digest}  {name}{pis}")
    got = total.hexdigest()
    print(f"parity sha256 {got} ({len(table)} towers, "
          f"{len(WIDE)} wide integer layers, "
          f"{len(wide_cofactors)} wide-modulus cofactor towers, "
          f"{len(tate)} Tate towers, {len(log_calls())} padic_log calls, "
          f"{len(LOG_TOWERS)} l_invariant towers)")
    if EXPECTED.exists():
        want = EXPECTED.read_text().split()[0]
        if got != want:
            print(f"parity MISMATCH: computed {got}, "
                  f"{EXPECTED.relative_to(HERE)} holds {want}")
            sys.exit(1)


if __name__ == "__main__":
    main()
