"""Seeded inputs for the benchmark workloads.

Everything here is plain data (ints, dicts, strings); no program object
is built.  The same seed gives the same inputs, and ``digest`` hashes
them so that two commits can be shown to run identical data.  The seed
only reorders items and applies perturbations that keep every answer
the same:

* tate-additive: a coordinate change (x, y) -> (x + r, y + s x + t) with
  r, s, t zeta-polynomials, which leaves the minimal-model reduction data
  unchanged;
* invariants: the units fed to padic_log.

Radicands are multiplied by b^(p^r) with b prime to p, a p^r-th power in
Q_p, so the field is unchanged; these b are fixed, not seeded.  The seed
never decides which rows, towers or radicand scales make up a run: those
change an item's cost by up to 2.4 times (see bench/README.md), and a run
of a few heavy items would then measure the seed instead of the program.

Golden rows are read from ``tests/test_table_regression.py`` without
importing it (the file imports pytest; the benchmark stays stdlib-only).
"""

import ast
import hashlib
import json
import random
from pathlib import Path

GOLDEN_FILE = Path("tests") / "test_table_regression.py"

# (p, r) pairs of the closed-form tower families; each gets radicand p
# ("radicand-p") and radicand 1 + p ("radicand-1+p").
CLOSED_FORM_PR = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]

# closed-form towers left out of tower-build: the degree-500 radicand-6
# tower takes about 20 s to build, more than a whole run can give one item
# when every item runs in several passes
TOO_LONG = {(5, 2, "radicand-1+p")}

# tate-additive items: (golden additive row, tower), the same in every
# run.  All 38 would take about 75 s per run; these 16 take about 30 s on
# the machine in bench/README.md.  Most run over L, where ten rows cost
# within 10 % of each other, so the median falls inside that cluster; the
# two cheapest L rows and the two dearest are left out, and two rows run
# over K.
TATE_ITEMS = ([(i, "L") for i in (0, 1, 2, 3, 4, 7, 9, 10, 11, 14, 15, 16,
                                 17, 18)]
              + [(5, "K"), (17, "K")])

# golden additive row used to warm the tate-additive towers' caches; one of
# the cheapest rows, so that the repeated set-up stays short
WARMUP_ROW = 5

# invariants towers: (p, r, radicand, closed-form variant or None, partner radicand)
INVARIANT_TOWERS = (
    [(p, 1, p, "radicand-p", 1 + p) for p in (3, 5, 7)]
    + [(p, 1, 1 + p, "radicand-1+p", p) for p in (3, 5, 7)]
    + [(3, 2, 3, "radicand-p", 4), (3, 2, 4, "radicand-1+p", 3),
       (2, 2, 2, "radicand-p", 5), (2, 2, 5, None, 2), (2, 3, 3, None, 5)]
)

# draws of each closed-form spec and each invariants tower per pass, draw
# k with the k-th integer b >= 2 prime to p as its b^(p^r) radicand factor.
# The factor is fixed, not seeded: the degree-500 build takes 2.6-3.8 s
# and the filt item of the (7, 1, 8) tower 0.4-1.0 s depending on b.
B_DRAWS = 2

# Calls that fail at the parent commit through known defects.  They stay
# out of the timed pool and run once per invariants run as probes.
KNOWN_DEFECTS = {
    ("cond", 3, 2, 3): "r=2 conductor-discriminant check applies the r=1 "
                       "character table (11 != 165)",
    ("cond", 3, 2, 4): "r=2 conductor-discriminant check applies the r=1 "
                       "character table (7 != 121)",
    ("cond", 2, 2, 2): "p=2 character table: no primitive root mod 2",
    ("cond", 2, 2, 5): "p=2 character table: no primitive root mod 2",
    ("cond", 2, 3, 3): "p=2 character table: no primitive root mod 2",
    ("filt", 2, 2, 5): "f=2: ramification_filtration puts every sigma in "
                       "G_0, so the filtration different is 15, not 6",
    ("filt", 2, 3, 3): "f=2: ramification_filtration puts every sigma in "
                       "G_0, so the filtration different is 90, not 50",
}


def load_golden(root):
    """(DISC_ROWS, ADDITIVE_ROWS) parsed from the golden test file."""
    tree = ast.parse((Path(root) / GOLDEN_FILE).read_text())
    rows = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("DISC_ROWS", "ADDITIVE_ROWS")):
            rows[node.targets[0].id] = ast.literal_eval(node.value)
    return rows["DISC_ROWS"], rows["ADDITIVE_ROWS"]


def fmt_zeta_poly(poly):
    """{exponent: coefficient} -> text accepted by the CLI's rad= grammar."""
    terms = []
    for expo in sorted(poly, reverse=True):
        c = poly[expo]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if expo == 0:
            terms.append(f"{sign}{mag}")
        else:
            coef = "" if mag == 1 else str(mag)
            power = "z" if expo == 1 else f"z^{expo}"
            terms.append(f"{sign}{coef}{power}")
    text = "".join(terms) or "0"
    return text[1:] if text.startswith("+") else text


def _scales(p):
    """The B_DRAWS fixed b of the b^(p^r) radicand factors: b >= 2 prime
    to p."""
    return [b for b in range(2, 2 * B_DRAWS + 2) if b % p][:B_DRAWS]


def _zeta_poly(rng):
    poly = {k: rng.randint(-3, 3) for k in range(6)}
    return {k: c for k, c in poly.items() if c}


def tate_additive(seed, root, closed_form_disc=None):
    """Items: the TATE_ITEMS rows over their towers, L (rad 4) or K
    (rad 3), in seeded order, each model under a seeded coordinate change.
    Also the fixed warm-up items: golden row WARMUP_ROW, unperturbed, per
    tower."""
    _, additive = load_golden(root)
    rng = random.Random(f"tate-additive:{seed}")
    items = []
    for i, tower in TATE_ITEMS:
        coeffs, q_k, q_l = additive[i]
        items.append({"id": f"add{i:02d}-{tower}", "tower": tower,
                      "coeffs": coeffs,
                      "rst": [_zeta_poly(rng) for _ in range(3)],
                      "want": list(q_l if tower == "L" else q_k)})
    rng.shuffle(items)
    coeffs, q_k, q_l = additive[WARMUP_ROW]
    warmup = [{"id": f"warmup-{t}", "tower": t, "coeffs": coeffs,
               "rst": [{}, {}, {}], "want": list(q)}
              for t, q in (("K", q_k), ("L", q_l))]
    return {"towers": {"K": 3, "L": 4}, "warmup": warmup, "items": items}


def tower_build(seed, root, closed_form_disc):
    """Items: CLI ``disc`` specs with their reference n and v_p(disc).

    Each spec appears B_DRAWS times per pass, its radicand, a golden zeta
    polynomial or a closed-form integer, multiplied by the fixed b^(p^r)
    of ``_scales``.
    """
    disc_rows, _ = load_golden(root)
    rng = random.Random(f"tower-build:{seed}")
    items = []
    for i, (rad, want) in enumerate(disc_rows):
        for draw, b in enumerate(_scales(3)):
            scaled = {k: b ** 9 * v for k, v in rad.items()}
            items.append({"id": f"disc{i:02d}-b{draw}",
                          "spec": f"p=3 r=2 rad={fmt_zeta_poly(scaled)}",
                          "n": 54, "v_disc": want})
    for p, r in CLOSED_FORM_PR:
        q = p ** r
        for variant, a in (("radicand-p", p), ("radicand-1+p", 1 + p)):
            if (p, r, variant) in TOO_LONG:
                continue
            for draw, b in enumerate(_scales(p)):
                items.append({"id": f"cf-p{p}r{r}-{variant}-b{draw}",
                              "spec": f"p={p} r={r} rad={a * b ** q}",
                              "n": (q - q // p) * q,
                              "v_disc": closed_form_disc(p, r, variant)})
    rng.shuffle(items)
    return {"items": items}


def invariants(seed, root, closed_form_disc):
    """Items: one public call on a small tower, with its reference.

    kinds: jr (verdict against the partner tower), filt (filtration,
    cross-checked against the different), cond (conductor-discriminant
    identity), linv (l(q) against l(q^2)), plog (padic_log additivity).
    Each tower and its partner appear with the B_DRAWS fixed b^(p^r)
    factors of ``_scales``; the plog units are seeded.
    """
    rng = random.Random(f"invariants:{seed}")
    items, probes = [], []
    for draw in range(B_DRAWS):
        for p, r, a, variant, partner in INVARIANT_TOWERS:
            q = p ** r
            b = _scales(p)[draw]
            tower = {"p": p, "r": r, "rad": a * b ** q,
                     "disc": (closed_form_disc(p, r, variant)
                              if variant else None)}
            for kind in ("jr", "filt", "cond", "linv", "plog"):
                item = {"id": f"{kind}-p{p}r{r}a{a}-b{draw}", "kind": kind,
                        "tower": tower}
                if kind == "jr":
                    item["partner_rad"] = partner * b ** q
                elif kind == "plog":
                    units = [x for x in range(1, p ** 6) if x % p]
                    item["units"] = [rng.choice(units), rng.choice(units)]
                if (kind, p, r, a) not in KNOWN_DEFECTS:
                    items.append(item)
                elif draw == 0:
                    item["defect"] = KNOWN_DEFECTS[(kind, p, r, a)]
                    probes.append(item)
    rng.shuffle(items)
    return {"items": items, "probes": probes}


WORKLOADS = {"tate-additive": tate_additive, "tower-build": tower_build,
             "invariants": invariants}


def digest(inputs):
    """Short hash of the generated inputs (canonical JSON)."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
