"""Verification workbench for finite strictly unital A-infinity categories.

Exact-arithmetic tooling over the rationals or prime fields: structure and
relation validation for categories given by sparse structure constants,
decreasing filtrations and their compatibility checks, the quotient category
of a filtered algebra on objects 0..n-1, one-sided twisted complexes with
semiorthogonality reports, and Hochschild-cocycle deformations of square-zero
extensions.  The sign conventions shared by every module are documented in
:mod:`ainfbench.ainf` and :mod:`ainfbench.perfmod`.
"""

from .scalars import ExactField, FieldError, GF, QQ
from .linalg import (
    ComplexError,
    ContainmentError,
    FiniteComplex,
    GradedSpace,
    LinAlgError,
    QuotientPresentation,
    Subspace,
    complex_cohomology,
    quotient_space,
)
from .ainf import (
    AInfCategory,
    CategoryError,
    ValidationReport,
    algebra,
    category,
    check_stasheff,
    opposite,
    validate_structure,
)
from .filtration import (
    AppendixParams,
    Filtration,
    FiltrationError,
    appendix_filtration,
    check_filtration,
    degree_filtration,
    quotient_by_ideal,
    radical,
)
from .auslander import (
    AuslanderCategory,
    AuslanderError,
    build_auslander,
)
from .perfmod import (
    HomComplexResult,
    ModuleError,
    ModuleMorphismElement,
    SodReport,
    TwistedComplex,
    cone,
    evaluate_at,
    hom_complex,
    psi,
    representable,
    sod_report,
)
from .hochschild import (
    Bimodule,
    HochschildCochain,
    HochschildError,
    coboundary_trivialization,
    deform_by_cocycle,
    diagonal_bimodule,
    hochschild_differential,
    square_zero_extension,
)
from .specfile import SpecError, WorkbenchSpec, parse_spec, serialize_category

__all__ = [
    "AInfCategory",
    "AppendixParams",
    "AuslanderCategory",
    "AuslanderError",
    "Bimodule",
    "CategoryError",
    "ComplexError",
    "ContainmentError",
    "ExactField",
    "FieldError",
    "Filtration",
    "FiltrationError",
    "FiniteComplex",
    "GF",
    "GradedSpace",
    "HochschildCochain",
    "HochschildError",
    "HomComplexResult",
    "LinAlgError",
    "ModuleError",
    "ModuleMorphismElement",
    "QQ",
    "QuotientPresentation",
    "SodReport",
    "SpecError",
    "Subspace",
    "TwistedComplex",
    "ValidationReport",
    "WorkbenchSpec",
    "algebra",
    "appendix_filtration",
    "build_auslander",
    "category",
    "check_filtration",
    "check_stasheff",
    "coboundary_trivialization",
    "complex_cohomology",
    "cone",
    "deform_by_cocycle",
    "degree_filtration",
    "diagonal_bimodule",
    "evaluate_at",
    "hochschild_differential",
    "hom_complex",
    "opposite",
    "parse_spec",
    "psi",
    "quotient_by_ideal",
    "quotient_space",
    "radical",
    "representable",
    "serialize_category",
    "sod_report",
    "square_zero_extension",
    "validate_structure",
]
