"""Exact-arithmetic verification of locally conformally Kaehler structures
on low-dimensional Lie algebras, with builders for higher dimensions."""

__version__ = "0.1.0"

from .exterior import KForm, parse_form
from .hermitian import (
    ComplexStructure,
    gram_metric,
    is_automorphism,
    is_complex_structure,
    is_j_invariant,
)
from .lck import (
    Constraint,
    LcKStructure,
    lee_form,
    morse_novikov_betti,
    vaisman_test,
    verify_lck,
)
from .liealg import LieAlgebra, parse_salamon
from .scalars import QQ, Polynomial, Scalar, ScalarField
from .solver import (
    SolutionSpace,
    degeneracy_certificate,
    lck_space,
    positivity_clash,
    twisted_closed_space,
)

__all__ = [
    "__version__",
    "QQ", "Polynomial", "Scalar", "ScalarField",
    "KForm", "parse_form",
    "LieAlgebra", "parse_salamon",
    "ComplexStructure", "is_complex_structure", "is_automorphism",
    "is_j_invariant", "gram_metric",
    "LcKStructure", "Constraint", "verify_lck", "lee_form", "vaisman_test",
    "morse_novikov_betti",
    "SolutionSpace", "twisted_closed_space", "lck_space",
    "degeneracy_certificate", "positivity_clash",
]
