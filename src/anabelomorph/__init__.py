"""Exact p-adic local field towers and their anabelian invariants.

The package decides anabelomorphism of Kummer fields over Q_p, computes
the invariants that witness its failure to determine the field
(differents, discriminants, Artin/Swan conductors, peu/tres type, the
log-over-ord invariant of Tate parameters), and classifies reduction of
elliptic curves over tower fields via Tate's algorithm.
"""

from .padic import (PadicScalar, PadicError, PrecisionError,
                    DivisionByPrecisionZero, padic_log)
from .fields import (TowerStep, LocalField, FieldElement, FieldError,
                     DegreeDropError, CertificationError,
                     UniformizerSearchError, build_field, norm_to_qp,
                     valuation, residue, find_uniformizer,
                     different_valuation, discriminant_valuation,
                     different_bound, closed_form_disc)
from .formats import parse_field_spec, parse_zeta_poly
from .galois import (GaloisElement, RamificationFiltration, Character,
                     NonGaloisTowerError, galois_group, apply_automorphism,
                     ramification_filtration, characters,
                     artin_conductor, swan_conductor,
                     conductor_discriminant_check, different_from_filtration)
from .anabelomorphy import (ANABELOMORPHIC, NOT_ANABELOMORPHIC, UNDECIDED,
                            PEU, TRES, KummerFieldSpec,
                            AnabelomorphismVerdict, jarden_ritter,
                            partition_classes, peu_tres_classify,
                            krasner_rationalize, parse_kummer_spec)
from .elliptic import (POTENTIALLY_GOOD, POTENTIALLY_MULTIPLICATIVE,
                       KodairaSymbol, WeierstrassModel, StandardInvariants,
                       ReductionData, SingularModelError,
                       weierstrass_invariants, reduction_class,
                       change_coords, tate_algorithm,
                       tate_parameter_valuation, iwasawa_log, l_invariant,
                       weak_amphoricity_report, parse_curve)

__version__ = "0.1.0"
