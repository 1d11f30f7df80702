"""Entanglement-assisted quantum MDS codes of length (q^2+1)/5 from
cyclic codes: construction, classification, and independent verification.
"""

from .codes import (
    ClassicalParams,
    bch_bound,
    check_polynomial,
    dimension,
    generator_polynomial,
    hermitian_dual_containing,
    longest_circular_run,
    mds_certificate,
)
from .cosets import (
    CycContext,
    CycCoset,
    DefiningSet,
    all_cosets,
    coset,
    coset_product_identity,
    coset_product_identity_inverse,
)
from .eaqecc import (
    EAQMDS,
    EQUALITY_WITHOUT_PRECONDITION,
    NOT_EAQMDS,
    Decomposition,
    EaqeccParams,
    decompose,
    eaqecc_params,
    eaqmds_status,
    ebits,
)
from .exceptions import VerificationError
from .families import (
    FAMILY_IDS,
    FamilyCode,
    FamilySpec,
    classify,
    entangled_window_set,
    enumerate_family,
    explain_rejection,
    family_defining_set,
    free_window_set,
    predicted_code,
    verify_family_code,
)
from .gf import (
    Field,
    FieldTower,
    Poly,
    PrimePower,
    build_field,
    field_tower,
    find_element_of_order,
    is_prime,
)
from .oracle import (
    BUDGET_EXCEEDED,
    MatrixGF,
    build_generator_matrix,
    build_parity_check_matrix,
    exhaustive_min_distance,
    rank,
    rank_hh_dagger,
)

__version__ = "0.1.0"
