"""Exact arithmetic for degree-2 Siegel modular form expansions.

Builds pinned truncations of the classical generators X4, X6, X10, X12,
Y12, X16 and X35, restricts them to the diagonal, checks mod-p^nu
congruences against sharp truncation bounds, and certifies both the bounds
and their sharpness at desk scale.
"""

from .expansion import SiegelExpansion, wronskian35
from .generators import GENERATOR_NAMES, GENERATOR_WEIGHTS, GeneratorRegistry, MonomialSpec
from .jacobi import cohen_h, jacobi_combine, jacobi_eisenstein, kronecker, maass_lift
from .qexp1 import DiagSeries, QSeries1, delta1, diag_builder, diag_tensor, divisor_sigma, eisenstein1
from .rationals import PrimePower, bernoulli, p_valuation, reduce_mod_p
from .verify import (
    CoeffMatrix,
    SturmReport,
    SuiteReport,
    Theorem1Report,
    check_congruence,
    check_vanishing,
    fp_rank,
    sharpness_witness,
    sturm_bound,
    verify_identities,
    verify_theorem1_rank,
    weight_monomials,
)

__version__ = "0.1.0"
