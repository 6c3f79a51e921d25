"""Command-line front end: verdicts, invariants, table regeneration and
seeded randomized curve searches.

Exit codes: 0 success/affirmative, 1 negative verdict, 2 undecided,
3 usage or computation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass

from .anabelomorphy import (ANABELOMORPHIC, NOT_ANABELOMORPHIC, UNDECIDED,
                            KummerFieldSpec, jarden_ritter)
from .elliptic import (WeierstrassModel, tate_algorithm,
                       weak_amphoricity_report)
from .fields import DEFAULT_DIGITS, FieldError, discriminant_valuation
from .formats import (field_from_spec, format_zeta_poly, parse_curve,
                      parse_kummer_spec, parse_radicand, parse_radicand_pair)
from .galois import conductor_discriminant_check
from .padic import PadicError, PrecisionError


@dataclass
class RunConfig:
    prec: int = None
    fmt: str = "pretty"
    out: str = None

    def write(self, text):
        if self.out:
            with open(self.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands


def cmd_check_anab(args, config):
    v = jarden_ritter(parse_kummer_spec(args.spec1),
                      parse_kummer_spec(args.spec2), prec=config.prec)
    if config.fmt == "json":
        config.write(json.dumps(v.to_dict(), indent=2) + "\n")
    else:
        config.write(f"{v.status}: {v.reason}\n"
                     f"  degrees: {v.degree1}, {v.degree2}\n"
                     f"  maximal abelian subfields: {v.k0_label1}, {v.k0_label2}\n")
    return {ANABELOMORPHIC: 0, NOT_ANABELOMORPHIC: 1, UNDECIDED: 2}[v.status]


def cmd_disc(args, config):
    K, spec = field_from_spec(args.spec, config.prec)
    val = discriminant_valuation(K)
    rad = spec.radicand if spec is not None else None
    if config.fmt == "json":
        config.write(json.dumps({"field": K.name, "n": K.n, "e": K.e,
                                 "f": K.f, "v_disc": val}) + "\n")
    elif rad is not None:
        config.write(f"[{rad}, {val}]\n")
    else:
        config.write(f"{val}\n")
    return 0


def cmd_conductor(args, config):
    K, _ = field_from_spec(args.spec, config.prec)
    report = conductor_discriminant_check(K)
    if config.fmt == "json":
        config.write(json.dumps(report, indent=2, default=str) + "\n")
    else:
        lines = [f"field: {report['field']}",
                 f"filtration breaks: {report['filtration_breaks']}",
                 f"conductors: {report['conductors']}",
                 f"swan: {report['swan']}",
                 f"ledger: sum dim*f = {report['sum_dim_times_conductor']} "
                 f"= v_p(disc) = {report['disc_valuation']}"]
        config.write("\n".join(lines) + "\n")
    return 0


def _quadruple_str(rd):
    return f"[{rd.v_min_disc}, {rd.conductor}, {rd.kodaira}, {rd.tamagawa}]"


def cmd_tate(args, config):
    K, _ = field_from_spec(args.spec, config.prec)
    coeffs = parse_curve(args.curve)
    model = WeierstrassModel.from_a_invariants(K, *coeffs)
    try:
        rd = tate_algorithm(model)
    except PrecisionError:
        # one retry at twice the working precision M: build_field sizes M
        # from max(prec, n + 32), so twice --prec alone would build the
        # same M again on a tower of degree n >= 96
        K2, _ = field_from_spec(args.spec, 2 * K.M)
        rd = tate_algorithm(WeierstrassModel.from_a_invariants(K2, *coeffs))
    if config.fmt == "json":
        config.write(json.dumps(rd.to_dict(K.name)) + "\n")
    elif config.fmt == "csv":
        config.write(f"{rd.v_min_disc},{rd.conductor},{rd.kodaira},"
                     f"{rd.tamagawa},{rd.components}\n")
    else:
        config.write(_quadruple_str(rd) + "\n")
    return 0


# built-in golden rows --------------------------------------------------

TABLE1_RADICANDS = ["3", "4", "-7"]

ADDITIVE_ROWS = [
    # (curve, second tower radicand)
    ("[0,3,0,0,9]", 2),
    ("[0,3,0,0,3]", 2),
    ("[0,0,0,-z^5+8z^4-z^3+z^2-2z-11,-408z^5-6z^4+201z^3+37z^2-38z+1348]", 4),
    ("[0,0,0,-2z^5+z^4+z^3-z^2+2z+5,869z^5+159z^4-47z^3-125z^2+354z+713]", 4),
]

SEMISTABLE_ROWS = [
    "[0,z^5+z^4-6z^3-z-9,0,z^5-z^4+8z^2-z+12,z^5+z^2+1]",
    "[0,2z^5-2z^4-z^3+z-5,0,-z^4+z^3-3z^2+8z+11,z^5+z^4-2z^3+3z^2-z+1]",
    "[0,-8z^5+8z^4-z^2+z+4,0,2z^5+z^3-5z^2-2z-10,-3z^5+z^4-z^3-z^2+5z-22]",
    "[0,-z^5-7z^4+2z^2-2z-12,0,z^5-z^4+z^3-z+4,-z^4-3z^2+z+3]",
    "[0,-4z^5-2z^4+z^3+z^2-z-3,0,3z^3-10z^2-z-12,z^5+z^4+2z^3-z^2-10z-14]",
    "[0,-z^5-z^4-z^3+z^2-3,0,-z^4-2z^3-3z^2-z-16,31z^5-3z^4-z^3+z+53]",
]


def cmd_table(args, config):
    rows_src = None
    if args.rows:
        with open(args.rows) as fh:
            rows_src = [ln.strip() for ln in fh if ln.strip()
                        and not ln.startswith("#")]
    out = []
    if args.table_id == "1":
        rads = rows_src if rows_src is not None else TABLE1_RADICANDS
        for radtxt in rads:
            K = KummerFieldSpec(3, 2, parse_radicand(radtxt)).build(
                config.prec)
            out.append(f"[{radtxt}, {discriminant_valuation(K)}]")
    else:
        K = KummerFieldSpec(3, 2, 3).build(config.prec)
        towers = {}
        if args.table_id == "elliptic-additive":
            rows = (ADDITIVE_ROWS if rows_src is None
                    else [(r, 4) for r in rows_src])
        else:
            rows = [(r, 4) for r in (rows_src if rows_src is not None
                                     else SEMISTABLE_ROWS)]
        for curvetxt, rad2 in rows:
            if rad2 not in towers:
                towers[rad2] = KummerFieldSpec(3, 2, rad2).build(config.prec)
            L = towers[rad2]
            rep = weak_amphoricity_report(parse_curve(curvetxt), K, L)
            out.append(f"{_quadruple_str(rep['first'])} "
                       f"{_quadruple_str(rep['second'])}")
    if config.fmt == "json":
        config.write(json.dumps(out, indent=2) + "\n")
    else:
        config.write("\n".join(out) + ("\n" if out else ""))
    return 0


def cmd_search(args, config):
    """Seeded random curves over an anabelomorphic pair; deterministic."""
    rng = random.Random(args.seed)
    p, r = args.p, args.r
    rads = (parse_radicand_pair(args.rads) if args.rads is not None
            else (p, 1 + p))
    spec1, spec2 = (KummerFieldSpec(p, r, a) for a in rads)
    K, L = spec1.build(config.prec), spec2.build(config.prec)
    phi = spec1.cyclotomic_degree()
    lines = []
    count = 0
    attempts = 0
    cap = max(args.count, min(args.budget, 400 * args.count))
    while count < args.count and attempts < cap:
        attempts += 1
        a2 = {i: rng.randrange(-9, 10) for i in range(phi)}
        a4 = {i: rng.randrange(-9, 10) for i in range(phi)}
        a6 = {i: rng.randrange(-9, 10) for i in range(phi)}
        curve = [{}, a2, {}, a4, a6]
        try:
            rep = weak_amphoricity_report(curve, K, L)
        except (PadicError, FieldError, ArithmeticError) as exc:
            lines.append(f"# skipped seed-item {attempts}: {exc}")
            continue
        kinds = {rep["first"].kodaira.kind, rep["second"].kodaira.kind}
        is_semistable = kinds <= {"I0", "In"}
        if args.semistable_only and not is_semistable:
            continue
        if args.additive_only and is_semistable:
            continue
        count += 1
        lines.append(f"{format_zeta_poly(a2)} | {format_zeta_poly(a4)} | "
                     f"{format_zeta_poly(a6)} | "
                     f"{_quadruple_str(rep['first'])} "
                     f"{_quadruple_str(rep['second'])} | "
                     f"equal={rep['all_equal']}")
    config.write("\n".join(lines) + ("\n" if lines else ""))
    return 0


# ----------------------------------------------------------------------


def build_parser():
    S = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prec", type=int, default=S,
                        help="working precision in base-p digits "
                        f"(default {DEFAULT_DIGITS})")
    common.add_argument("--format", dest="fmt", default=S,
                        choices=["json", "csv", "pretty"])
    common.add_argument("--out", default=S, help="write output to this path")
    ap = argparse.ArgumentParser(
        prog="anabelomorph",
        parents=[common],
        description="exact p-adic field towers: anabelomorphism verdicts, "
                    "ramification invariants, reduction types")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-anab", parents=[common],
                       help="Jarden-Ritter verdict for two fields")
    s.add_argument("spec1")
    s.add_argument("spec2")
    s.set_defaults(func=cmd_check_anab)

    s = sub.add_parser("disc", parents=[common],
                       help="discriminant valuation of a tower")
    s.add_argument("spec")
    s.set_defaults(func=cmd_disc)

    s = sub.add_parser("conductor", parents=[common],
                       help="filtration and Artin/Swan conductors of a "
                            "Galois tower")
    s.add_argument("spec")
    s.set_defaults(func=cmd_conductor)

    s = sub.add_parser("tate", parents=[common],
                       help="reduction data of a curve over a tower")
    s.add_argument("curve", help="[a1,a2,a3,a4,a6], entries integer polys in z")
    s.add_argument("spec")
    s.set_defaults(func=cmd_tate)

    s = sub.add_parser("table", parents=[common],
                       help="regenerate built-in data tables")
    s.add_argument("table_id",
                   choices=["1", "elliptic-additive", "elliptic-semistable"])
    s.add_argument("--rows", default=None, help="optional row-source file")
    s.set_defaults(func=cmd_table)

    s = sub.add_parser("search", parents=[common],
                       help="seeded randomized curve comparison")
    s.add_argument("--count", type=int, default=5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget", type=int, default=10000,
                   help="cap on attempted curves")
    s.add_argument("--p", type=int, default=3)
    s.add_argument("--r", type=int, default=1)
    s.add_argument("--rads", default=None,
                   help="comma-separated pair of radicands (default p,1+p)")
    s.add_argument("--semistable-only", action="store_true")
    s.add_argument("--additive-only", action="store_true")
    s.set_defaults(func=cmd_search)
    return ap


@functools.cache
def _parser():
    """The parser of ``main``, built once per process: parse_args leaves
    it unchanged, and building it costs about 1.4 ms a call."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of UNDECIDED here,
        # and 0 after --help
        return 3 if exc.code else 0
    config = RunConfig(prec=getattr(args, "prec", None),
                       fmt=getattr(args, "fmt", "pretty"),
                       out=getattr(args, "out", None))
    try:
        return args.func(args, config)
    except (PadicError, FieldError, ArithmeticError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
