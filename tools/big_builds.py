"""Build the five big Kummer towers and check their discriminants.

    python3 tools/big_builds.py [-n N] [--checkout DIR]

The towers are Q_p(zeta_(p^r), a^(1/p^r)) for (p, r, a) = (2, 5, 3),
(3, 3, 3), (5, 2, 6), (2, 4, 3) and (2, 6, 3), of degree 512, 486, 500,
128 and 2048, each built as ``disc "p=<p> r=<r> rad=<a>"`` builds it.
For each the script prints the degree, v_p(disc), the headroom m - s of
each layer's uniformizer pi from Q_p up, and the median CPU seconds
(``time.process_time``) of N cold builds (default 3): each starts
without the cyclotomic base that the package shares between builds, as a
checkout without that cache builds it.  It exits 1 unless
v_p(disc) is 2644, 1983, 1083, 532 and 12628 respectively.  It imports
``anabelomorph`` from ``DIR/src`` (by default the repository that holds
this script).  Stdlib only; one build of all five takes about ten
seconds, most of it the degree-2048 tower.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

# no import below leaves bytecode behind, in tools/ or in the checkout,
# where it would skew a later benchmark run
sys.dont_write_bytecode = True

from parity import headroom

HERE = Path(__file__).resolve().parent.parent

# (p, r, radicand) -> v_p(disc)
TOWERS = {(2, 5, 3): 2644, (3, 3, 3): 1983, (5, 2, 6): 1083, (2, 4, 3): 532,
          (2, 6, 3): 12628}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-n", type=int, default=3, help="builds per tower")
    ap.add_argument("--checkout", type=Path, default=HERE)
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("-n takes a positive count")
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from anabelomorph import fields
    from anabelomorph.anabelomorphy import parse_kummer_spec
    from anabelomorph.fields import discriminant_valuation
    cached_base = getattr(fields, "_cyclotomic", None)

    wrong = []
    for (p, r, a), want in TOWERS.items():
        spec = parse_kummer_spec(f"p={p} r={r} rad={a}")
        times = []
        for _ in range(args.n):
            if cached_base is not None:
                cached_base.cache_clear()
            start = time.process_time()
            K = spec.build()
            times.append(time.process_time() - start)
        got = discriminant_valuation(K)
        print(f"({p},{r},{a}) degree {K.n}  v_p(disc) {got}  "
              f"pi m-s {' '.join(map(str, headroom(K)))}  "
              f"build {statistics.median(times):.2f} s CPU "
              f"(median of {args.n})")
        if got != want:
            wrong.append(f"({p},{r},{a}): v_p(disc) {got}, expected {want}")
    for line in wrong:
        print("MISMATCH", line)
    sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    main()
