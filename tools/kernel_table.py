"""Print the packed-product table that sits at fields._PACKED_EXPONENT.

    python3 tools/kernel_table.py [--rounds N] [--bits B,B,...]

Each row is one layer of a tower over a base that is not Q_p.  For each
width of p^m in bits, the script times one product of two dense random
vectors of that layer, reduced mod p^m, three ways:

  * layered: no layer packs, so the product is one-level Karatsuba block
    products down to the integer kernel of the layer over Q_p (a layer
    whose relations are monomial folds by its table, ``anabelomorph.folds``,
    here as in the packed way);
  * packed: every layer may pack (``LocalField._packed``), so the layer
    packs whole unless its packed product passes _PACKED_PRODUCT_BITS,
    and then its block products pack, or theirs;
  * under the gate.

It asserts that the three give the same vector, and prints a speed
against the layered product, the minimum over N interleaved rounds
(default 7) of each, after the layer's degree n over Q_p, its degree d
over its base and the slots of a whole packed product.  Where the gate
packs, the cell is the speed of the gate's product, marked *; elsewhere
it is the speed of the packed way, unmarked.

The first eleven rows are the top layers of Q_p(zeta_(p^r), a^(1/p^r)),
written (p,r) rad a, the Kummer layers of degree d = p over a base that
is not Q_p: the eight towers of the table this one replaced and the three
``invariants`` towers of the benchmark that it lacked, (3,1) rad 3, (2,2)
rad 2 and (7,1) rad 7.  The other seven are layers below the top of a
tower, marked by their n, and custom layers, whose degree d is not p:
x^3 = 2 over Q_2(i) ('custom p=2') and x^3 = 5 over Q_5(zeta_5) ('custom
p=5'), and the degree-2 layers x^2 = 2 over Q_3(zeta_3) ('quad p=3') and
x^2 = 3 over Q_7(zeta_7) ('quad p=7').  The columns are 32 to
208 bits in steps of 16, so that they reach the widest product the gate
packs on these layers, 7^74 at 208 bits, and 72 bits, the widest product
of the p-adic log at p = 2, which falls in the 65-74 bits that the gate
packs on a layer of degree 2 and a flat gate of 64 bits did not.  Each
way sets the widest modulus d^k at which the layers pack through
``fields._PACKED_EXPONENT`` = k, 0 for none, which a layer reads when it
lays out its slots.  A run of 25 rounds takes about three minutes on a
2-core x86 host (CPython 3.11).

With ``--matrix`` it prints instead the table behind
``folds._MATRIX_COORDS``: on bases of n = 2 to 100 coordinates, the speed
of a product by a dense constant through its matrix
(``folds.FixedProducts``) against one base product, by the width of p^m,
'-' where the width gate takes the base product.  It exits 1 if the two
differ.  It imports ``anabelomorph`` from the repository that holds this
script and writes nothing.  Stdlib only.
"""

import argparse
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# no import below leaves bytecode behind in the checkout, where it would
# skew a later benchmark run
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from anabelomorph import fields, folds  # noqa: E402
from anabelomorph.fields import TowerStep as T  # noqa: E402

TOWERS = ((3, 2, 3), (3, 2, 4), (5, 1, 6), (7, 1, 8), (2, 3, 3),
          (3, 3, 3), (2, 4, 3), (2, 5, 3), (3, 1, 3), (2, 2, 2), (7, 1, 7))
# (name, p, steps, degree n of the layer over Q_p, None for the top)
ROWS = (*((f"({p},{r}) rad {a}", p,
           (T.cyclotomic(p ** r), T.kummer(p ** r, a)), None)
          for p, r, a in TOWERS),
        ("(2,2) rad 2", 2, (T.cyclotomic(4), T.kummer(4, 2)), 4),
        ("(2,3) rad 3", 2, (T.cyclotomic(8), T.kummer(8, 3)), 8),
        ("(3,2) rad 3", 3, (T.cyclotomic(9), T.kummer(9, 3)), 18),
        ("custom p=2", 2, (T.cyclotomic(4), T.custom([-2, 0, 0])), None),
        ("custom p=5", 5, (T.cyclotomic(5), T.custom([-5, 0, 0])), None),
        ("quad p=3", 3, (T.cyclotomic(3), T.custom([-2, 0])), None),
        ("quad p=7", 7, (T.cyclotomic(7), T.custom([-3, 0])), None))
BITS = tuple(sorted((72, *range(32, 209, 16))))
# (name, p, steps, n) of the bases of the matrix table: the layer of
# degree n over Q_p of the tower
MATRIX_BASES = (("Q_3(zeta_3)", 3, (T.cyclotomic(3),), 2),
                ("Q_5(zeta_5)", 5, (T.cyclotomic(5),), 4),
                ("(2,2) rad 2", 2, (T.cyclotomic(4), T.kummer(4, 2)), 4),
                ("Q_3(zeta_9)", 3, (T.cyclotomic(9),), 6),
                ("(3,1) rad 3", 3, (T.cyclotomic(3), T.kummer(3, 3)), 6),
                ("(2,3) rad 3", 2, (T.cyclotomic(8), T.kummer(8, 3)), 8),
                ("(2,3) rad 3", 2, (T.cyclotomic(8), T.kummer(8, 3)), 16),
                ("(3,2) rad 3", 3, (T.cyclotomic(9), T.kummer(9, 3)), 18),
                ("Q_5(zeta_25)", 5, (T.cyclotomic(25),), 20),
                ("(5,1) rad 6", 5, (T.cyclotomic(5), T.kummer(5, 6)), 20),
                ("(2,3) rad 3", 2, (T.cyclotomic(8), T.kummer(8, 3)), 32),
                ("(7,1) rad 7", 7, (T.cyclotomic(7), T.kummer(7, 7)), 42),
                ("(3,2) rad 3", 3, (T.cyclotomic(9), T.kummer(9, 3)), 54),
                ("(5,2) rad 5", 5, (T.cyclotomic(25), T.kummer(25, 5)), 100))
MATRIX_BITS = (32, 64, 96, 128, 192, 256, 384, 512)


def digits_at(p, bits):
    """The most digits m with p^m of at most ``bits`` bits."""
    m = 1
    while (p ** (m + 1)).bit_length() <= bits:
        m += 1
    return m


def timed(exponent, K, x, y, pm, reps):
    """(seconds per product, vector, whether the gate packed) of ``reps``
    products with the gate's exponent set to ``exponent``."""
    saved, packed = fields._PACKED_EXPONENT, fields.LocalField._packed
    packs = []

    def counting(fld, xs, ys, m):
        packs.append(fld)
        return packed(fld, xs, ys, m)

    def relayout():
        # a layer keeps its widest packed modulus with its slot layout
        for fld in K.layers[1:]:
            fld._packing = None

    fields._PACKED_EXPONENT = exponent
    relayout()
    try:
        fields.LocalField._packed = counting
        out = K._mul_mod(x, y, pm)
        fields.LocalField._packed = packed
        t0 = time.perf_counter()
        for _ in range(reps):
            K._mul_mod(x, y, pm)
        return (time.perf_counter() - t0) / reps, out, bool(packs)
    finally:
        fields._PACKED_EXPONENT, fields.LocalField._packed = saved, packed
        relayout()


def matrix_table(rounds, widths):
    """Check and print the matrix table (``--matrix``)."""
    saved = folds._MATRIX_COORDS
    rng = random.Random("matrix table")
    rows, cells = [], []
    for name, p, steps, n in MATRIX_BASES:
        B = next(L for L in fields.build_field(p, list(steps)).layers
                 if L.n == n)
        c = tuple(rng.randrange(B.pM) for _ in range(n))
        # every base gets its matrix, whatever its size
        folds._MATRIX_COORDS = n
        try:
            # the products by constants in B of a layer over it
            fixed = folds.FixedProducts(SimpleNamespace(base=B),
                                        fields._KARATSUBA_BITS)
        finally:
            folds._MATRIX_COORDS = saved
        rows.append((name, n, B.d))
        for bits in widths:
            pm = p ** digits_at(p, bits)
            if pm > fixed.limit:
                cells.append(None)
                continue
            # unreduced and negative entries, as the walk and folds pass
            x = [rng.randrange(-pm, 2 * pm) for _ in range(n)]
            want = B._mul_mod(x, c, pm)
            once = timeit(lambda: B._mul_mod(x, c, pm), 1)
            cells.append((B, fixed, x, c, pm, max(1, int(0.002 / once)),
                          want))
    best = [[float("inf")] * 2 for _ in cells]
    for _ in range(rounds):
        for i, cell in enumerate(cells):
            if cell is None:
                continue
            B, fixed, x, c, pm, reps, want = cell
            if list(fixed.mul(x, c, pm)) != list(want):
                raise SystemExit(f"{B.name} mod {pm}: matrix != base product")
            ways = [lambda: B._mul_mod(x, c, pm), lambda: fixed.mul(x, c, pm)]
            for way in rng.sample(range(2), 2):
                best[i][way] = min(best[i][way], timeit(ways[way], reps))
    print(f"#   base             n  d{''.join(f'{b:6d}' for b in widths)} bits")
    w = len(widths)
    for r, (name, n, d) in enumerate(rows):
        line = "".join("     -" if cells[c] is None
                       else f"{best[c][0] / best[c][1]:6.2f}"
                       for c in range(r * w, (r + 1) * w))
        print(f"#   {name:<13}{n:4d}{d:3d}{line}".rstrip())


def timeit(fn, reps):
    """Seconds per call of ``reps`` calls of fn."""
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--bits", default=None,
                    help="comma-separated widths of p^m in bits")
    ap.add_argument("--matrix", action="store_true",
                    help="print the table of products by a fixed constant "
                         "through its matrix")
    args = ap.parse_args()
    widths = [int(b) for b in (args.bits or ",".join(
        map(str, MATRIX_BITS if args.matrix else BITS))).split(",")]
    if args.matrix:
        return matrix_table(args.rounds, widths)

    # no pm is at most d^0 = 1, and every pm of at most b bits is below
    # d^b for d >= 2
    ways = {"layered": 0, "packed": max(widths),
            "gate": fields._PACKED_EXPONENT}
    rng = random.Random("kernel table")
    rows, cells = [], []
    for name, p, steps, n in ROWS:
        K = fields.build_field(p, list(steps))
        if n is not None:
            K = next(L for L in K.layers if L.n == n)
        rows.append((name, K))
        for bits in widths:
            pm = p ** digits_at(p, bits)
            x, y = ([rng.randrange(pm) for _ in range(K.n)] for _ in "xy")
            # enough products per timing to last about 2 ms
            once, want, _ = timed(0, K, x, y, pm, 1)
            cells.append((K, x, y, pm, max(1, int(0.002 / once)), want))
    best = [dict.fromkeys(ways, float("inf")) for _ in cells]
    gated = [False] * len(cells)
    # a round times every cell once, each way in a random order, so that a
    # slow stretch of a shared host reaches one round of a cell, not all
    for _ in range(args.rounds):
        for c, (K, x, y, pm, reps, want) in enumerate(cells):
            for way in rng.sample(list(ways), len(ways)):
                t, got, packs = timed(ways[way], K, x, y, pm, reps)
                if got != want:
                    raise SystemExit(f"{K.name} mod {pm}: {way} != layered")
                best[c][way] = min(best[c][way], t)
                if way == "gate":
                    gated[c] = packs
    print(f"#   tower          n  d  slots"
          f"{''.join(f'{b:6d}' for b in widths)} bits")
    w = len(widths)
    for i, (name, K) in enumerate(rows):
        line = ""
        for c in range(i * w, (i + 1) * w):
            way, mark = ("gate", "*") if gated[c] else ("packed", " ")
            line += f"{best[c]['layered'] / best[c][way]:5.2f}{mark}"
        print(f"#   {name:<12}{K.n:4d}{K.d:3d}{K._init_packing()[2]:7d}"
              f"{line}".rstrip())


if __name__ == "__main__":
    main()
