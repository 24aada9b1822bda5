"""Exact-arithmetic workbench for logarithmic Fontaine-Faltings modules mod p^n.

The package models modules with an integrable logarithmic connection, a
basis-adapted Hodge filtration and a Frobenius structure over the mixed
polynomial/Laurent coordinate ring (Z/p^n)[T_1..T_s][T_{s+1}^{+-1}..T_d^{+-1}],
and verifies the finitely-stated identities of that theory by computation:
structure constants of the falling-factorial basis, the logarithmic Taylor
formula, the gluing isomorphism between Frobenius twists together with its
cocycle/linearity/horizontality properties, pullback functoriality, and the
root-cover mechanism that kills logarithmic poles mod p^m.
"""

from .exactnum import NonIntegralError, factorial_valp, modinv, reduce_mod
from .logring import (
    DividedCoeffs,
    FrobLift,
    LiftMismatchError,
    IllegalMapError,
    RingElem,
    RingMap,
    RingSpec,
    SpecMismatchError,
    design_shell_bound,
    multi_indices,
    stop_shell,
    taylor_residual,
    work_precision,
)
from .exprparse import ParseError, parse_expr
from .ffcoeff import (
    falling_poly,
    multi_structure_constants,
    structure_constants,
    to_falling_basis,
    verify_coeff_identity,
)
from .matrices import Matrix
from .ffmodule import (
    BasisVector,
    CheckResult,
    ElementNotInFilError,
    InvariantViolationError,
    LogFFModule,
    apply_connection,
    check_flat,
    check_griffiths,
    check_horizontal,
    check_strong_div,
    divided_connection,
    falling_connection_op,
    reduce_mod_pm,
    root_map,
    root_pullback,
    run_all_checks,
    tilde_embed,
)
from .transport import (
    GlueMap,
    check_glue_cocycle,
    check_glue_horizontal,
    check_glue_identity,
    check_glue_linearity,
    check_nonlog_agreement,
    check_pullback_functorial,
    glue_map,
    pullback_ff,
)
from .modfile import (
    map_from_dict,
    map_to_dict,
    module_from_dict,
    module_to_dict,
    parse_map_file,
    parse_module_file,
)

__all__ = [name for name in dir() if not name.startswith("_")]
