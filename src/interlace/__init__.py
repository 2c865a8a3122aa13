"""Exact-arithmetic toolkit for ascent polynomials of restricted words,
Sturm-certified real-rootedness and interleaving, and {0, 1, x} matrices that
preserve interlacing."""

from .compat import (
    CompatVerdict,
    CompatWitness,
    check_conditions_ab,
    compatible_family_sampled,
    compatible_pair_sampled,
    theorem_comp_transform,
)
from .edgewise import (
    EVector,
    FVector,
    HVector,
    e_base,
    e_gamma,
    e_step,
    e_vector,
    fh_transform,
    gamma_matrix,
    hf_transform,
    local_h,
)
from .matrices import (
    Classification,
    Entry,
    PatternVerdict,
    SymMatrix,
    action_property_test,
    apply,
    check_2x2_sampled,
    classify_all_2x2,
    ferrers_check,
    find_failing_sample,
    forbidden_pattern,
    generator_closure,
    minors_nonneg,
    preserves_check,
)
from .polys import (
    NEG_INFINITY_DEGREE,
    Poly,
    poly_derivative,
    poly_gcd,
)
from .realroots import (
    RootCertificate,
    RootInterval,
    SturmChain,
    count_real_roots,
    in_fplus,
    interleaves,
    is_interlacing_seq,
    is_real_rooted,
    isolate_roots,
    refine_certificate,
    squarefree_part,
)
from .words import (
    DEFAULT_BUDGET,
    GammaVector,
    Word,
    ascents,
    enumerate_sw_gamma,
    enumerate_sw_prime,
    oracle_E,
    oracle_E_gamma,
    oracle_local_h,
)

__all__ = [name for name in dir() if not name.startswith("_")]
