"""Exact computational toolkit for the finite objects behind inverse
Galois constructions: roots of unity and their Frobenius orbits, monomial
matrix images of local parameters, admissible prime pairs, wild 2-adic
image groups, Weyl element orders through rank 8, and finite group
criteria of type (n, p).

Importing ggt loads every module but cli and weylenum, the Weyl group
engine, which rootsystems loads with the first Weyl group element it
needs.  No module imports numpy, and ggt has no runtime dependency."""

from .cyclotomic import Cyc
from .errors import ResourceBoundExceeded, SearchExhausted
from .fingroup import (FinGroup, TypeNPWitness, cyclic, direct_product,
                       is_type_np, is_type_npl, metacyclic)
from .monomial import MonomialMatrix
from .numth import (PrimePair, cyclotomic_poly, cyclotomic_value, euler_phi,
                    factorize, is_prime, min_k_order_appears, mult_order)
from .primesearch import (SearchCertificate, SearchRequest, find_prime_pair,
                          validate_certificate)
from .roots import (FrobeniusOrbit, RootOfUnity, check_selfdual_orbit,
                    frobenius_orbit, selfdual_root)
from .rootsystems import (EXPECTED_TABLE, IRREDUCIBLE_LABELS, OrderSet,
                          RootData, RootSystem, almost_minuscule_data,
                          audit_omission_policy, check_order_table,
                          cyclic_weight_permutation_check,
                          even_dimension_controls, order_table, root_data,
                          uniqueness_scan, weyl_element_orders, weyl_order)
from .weilparams import (CharPolyShape, G2Check, RealParameter, TameParameter,
                         build_tame_parameter, char_poly_shape,
                         g2_admissible_eigenvalues, is_g2_parameter,
                         is_g2_real, palindrome_split, parameter_image,
                         real_parameter, satake_lift_g2)
from .wildtwo import (Constituent, G2JordanGroup, WildImageSO,
                      build_g2_jordan, build_so_wild, g2_jordan_report,
                      mackey_decompose, so_wild_report)

# the one source of the version: pyproject.toml and the cli read it here
__version__ = "0.1.0"

__all__ = [
    "Cyc", "ResourceBoundExceeded", "SearchExhausted",
    "FinGroup", "TypeNPWitness", "cyclic", "direct_product",
    "is_type_np", "is_type_npl", "metacyclic",
    "MonomialMatrix",
    "PrimePair", "cyclotomic_poly", "cyclotomic_value", "euler_phi",
    "factorize", "is_prime", "min_k_order_appears", "mult_order",
    "SearchCertificate", "SearchRequest", "find_prime_pair",
    "validate_certificate",
    "FrobeniusOrbit", "RootOfUnity", "check_selfdual_orbit",
    "frobenius_orbit", "selfdual_root",
    "EXPECTED_TABLE", "IRREDUCIBLE_LABELS", "OrderSet", "RootData",
    "RootSystem", "almost_minuscule_data", "audit_omission_policy",
    "check_order_table", "cyclic_weight_permutation_check",
    "even_dimension_controls", "order_table", "root_data",
    "uniqueness_scan", "weyl_element_orders", "weyl_order",
    "CharPolyShape", "G2Check", "RealParameter", "TameParameter",
    "build_tame_parameter", "char_poly_shape", "g2_admissible_eigenvalues",
    "is_g2_parameter", "is_g2_real", "palindrome_split", "parameter_image",
    "real_parameter", "satake_lift_g2",
    "Constituent", "G2JordanGroup", "WildImageSO", "build_g2_jordan",
    "build_so_wild", "mackey_decompose",
    "g2_jordan_report", "so_wild_report",
]
