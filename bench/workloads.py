"""Set-up and items of the three workloads.

Each item is one public call into the program plus the check of its
answer.  A check raises ``Mismatch`` when a certified answer differs from
its golden or closed-form reference (the run aborts), and ``CrossCheck``
when an internal cross-check fails or a verdict is UNDECIDED (the item
counts as failed).  Every call goes through the module attribute at call
time, so the tracer's wrappers see it.
"""

import json


class Mismatch(Exception):
    """A certified answer differs from its reference."""


class CrossCheck(Exception):
    """An internal cross-check failed or the answer was UNDECIDED."""


def _expect(item_id, what, got, want):
    if got != want:
        raise Mismatch(f"{item_id}: {what} {got!r} != reference {want!r}")


# -- tate-additive --------------------------------------------------------


def tate_setup(mods, inputs):
    """Both degree-54 towers plus one warm-up item per tower, which fills
    the towers' lazy uniformizer-power caches."""
    fields = mods["fields"]
    step = fields.TowerStep
    towers = {name: fields.build_field(3, [step.cyclotomic(9),
                                           step.kummer(9, rad)])
              for name, rad in inputs["towers"].items()}
    for item in inputs["warmup"]:
        tate_item(mods, towers, item)
    return towers


def tate_item(mods, towers, item):
    ell = mods["elliptic"]
    F = towers[item["tower"]]
    model = ell.WeierstrassModel.from_a_invariants(F, *item["coeffs"])
    r, s, t = (F.from_zeta_poly(poly) for poly in item["rst"])
    model = ell.change_coords(model, 1, r, s, t)
    rd = ell.tate_algorithm(model)
    _expect(item["id"], "quadruple", list(rd.quadruple()), item["want"])


# -- tower-build -------------------------------------------------------------


def disc_item(mods, out_path, item):
    if out_path.exists():
        out_path.unlink()
    code = mods["cli"].main(["disc", item["spec"], "--format", "json",
                             "--out", str(out_path)])
    if code != 0:
        raise CrossCheck(f"exit code {code}")
    got = json.loads(out_path.read_text())
    _expect(item["id"], "degree n", got["n"], item["n"])
    _expect(item["id"], "v_p(disc)", got["v_disc"], item["v_disc"])


# -- invariants ----------------------------------------------------------------


def invariant_item(mods, item):
    anab, fields = mods["anabelomorphy"], mods["fields"]
    galois, ell = mods["galois"], mods["elliptic"]
    tower, kind, iid = item["tower"], item["kind"], item["id"]
    p, r = tower["p"], tower["r"]
    spec = anab.KummerFieldSpec(p, r, tower["rad"])
    q = p ** r
    if kind == "jr":
        partner = anab.KummerFieldSpec(p, r, item["partner_rad"])
        v = anab.jarden_ritter(spec, partner)
        if v.status == anab.UNDECIDED:
            raise CrossCheck(f"UNDECIDED: {v.reason}")
        # equal degree and equal maximal abelian subfield Q_p(zeta_{p^r})
        _expect(iid, "verdict", v.status, anab.ANABELOMORPHIC)
        _expect(iid, "degrees", [v.degree1, v.degree2], [(q - q // p) * q] * 2)
    elif kind == "plog":
        padic = mods["padic"]
        u, w = (padic.PadicScalar.from_int(x, p, 40) for x in item["units"])
        d = padic.padic_log(u * w, prec=16) - (padic.padic_log(u, prec=16)
                                               + padic.padic_log(w, prec=16))
        if not (d.is_bottom or d.valuation() >= 14):
            raise CrossCheck(f"log(uw) - log u - log w has valuation "
                             f"{d.valuation()} < 14")
    else:
        K = spec.build()
        if kind == "filt":
            filt = galois.ramification_filtration(K)
            dv = fields.different_valuation(K)
            if tower["disc"] is not None:
                _expect(iid, "v_p(disc)", K.f * dv, tower["disc"])
            df = galois.different_from_filtration(filt)
            if df != dv:
                raise CrossCheck(f"filtration different {df} != "
                                 f"different {dv}")
        elif kind == "cond":
            rep = galois.conductor_discriminant_check(K)
            if not rep["match"]:
                raise CrossCheck("conductor-discriminant identity failed")
            if tower["disc"] is not None:
                _expect(iid, "v_p(disc)", rep["disc_valuation"], tower["disc"])
        elif kind == "linv":
            qp = K.from_int(p) * (K.one() + K.pi)
            d = ell.l_invariant(qp) - ell.l_invariant(qp * qp)
            if not (d.is_zero_to_precision() or d.valuation() >= 20 * K.e):
                raise CrossCheck(f"l(q) - l(q^2) has valuation "
                                 f"{d.valuation()} < {20 * K.e}")
        else:
            raise ValueError(f"unknown item kind {kind!r}")
