"""Ramification filtration and Artin conductors of anabelomorphic pairs.

The two anabelomorphic sextic fields have different filtration breaks,
so the induced two-dimensional character picks up different conductors
(5 versus 3 at p = 3) while the conductor-discriminant identity holds
exactly on each side.  At r = 2 the degree-54 pair Q_3(zeta_9, 3^(1/9))
and Q_3(zeta_9, 4^(1/9)) differs in the (dim, f) multisets of its
irreducible characters from dimension 2 on.
"""

from collections import Counter

from anabelomorph import (TowerStep, artin_conductor, build_field,
                          characters, conductor_discriminant_check,
                          ramification_filtration)

T = TowerStep


def show(radicand):
    K = build_field(3, [T.cyclotomic(3), T.kummer(3, radicand)])
    filt = ramification_filtration(K)
    rep = conductor_discriminant_check(K)
    print(f"radicand {radicand}:")
    print("   i(sigma) multiset:", sorted(filt.i_values.values()))
    print("   breaks:", filt.breaks)
    print("   conductors:", rep["conductors"])
    print("   swan:", rep["swan"])
    print("   ledger:", rep["sum_dim_times_conductor"], "=",
          rep["disc_valuation"])
    print("   inducing character over the cyclotomic base:",
          rep["wild_char_conductor_over_cyclotomic"])


def show_r2(radicand):
    K = build_field(3, [T.cyclotomic(9), T.kummer(9, radicand)])
    filt = ramification_filtration(K)
    rep = conductor_discriminant_check(K)
    dim_f = Counter((chi.dim, artin_conductor(chi, filt))
                    for chi in characters(filt))
    print(f"radicand {radicand}, r = 2:")
    print("   breaks:", filt.breaks)
    print("   (dim, f) multiplicities:", sorted(dim_f.items()))
    print("   ledger:", rep["sum_dim_times_conductor"], "=",
          rep["disc_valuation"])


def main():
    show(3)
    show(4)
    show_r2(3)
    show_r2(4)


if __name__ == "__main__":
    main()
