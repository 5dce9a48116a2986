"""Desk-scale computations with McKay quivers and their module theory.

The package builds the ADE subgroups of SL(2, C) with their characters,
the doubled/framed/tripled McKay quivers, exact graded dimensions of the
associated path algebras modulo relations (cross-checked against a
character-theoretic count), corner restriction/extension functors on
finite-dimensional modules, framed-module stability with an exhaustive
finite-field oracle, chamber pushforwards, cyclic equivariant ADHM data,
and a quotient-scheme correspondence check.
"""

from .errors import MckayError
from .gamma_data import (
    GammaDescriptor,
    GroupData,
    build_group,
    parse_descriptor,
    tensor_multiplicity,
    tensor_multiplicity_matrix,
)
from .quiver_core import (
    INFINITY,
    Arrow,
    DimVector,
    Quiver,
    StabilityParam,
    delta,
    frame_quiver,
    mckay_quiver,
    theta_I,
    triple_quiver,
)
from .graded_algebra import (
    AlgebraContext,
    SliceClass,
    corner_generation_bound,
    factor_through_bound,
    hilbert_sequence,
    molien_sequence,
    multiply_classes,
)
from .rep_theory import (
    QuiverRep,
    SubmoduleWitness,
    are_isomorphic,
    brute_force_stability,
    check_relations,
    direct_sum,
    generated_submodule,
    is_flat,
    is_stable,
    make_rep,
    max_submodule_avoiding,
    polystable_decomposition,
    random_flat_rep,
    reduce_mod_p,
    s_equivalent,
    stability_verdict,
    vertex_simple,
    zero_rep,
)
from .corner_functors import (
    CorneredModule,
    cornered_isomorphic,
    generation_degree,
    j_shriek,
    j_star,
)
from .moduli_tools import (
    adhm_build_cyclic,
    check_quot_correspondence,
    dimension_bound_check,
    is_sufficient,
    minimal_sufficient_completion,
    truncated_corner_column,
    vgit_push_list,
    vgit_pushforward,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext",
    "Arrow",
    "CorneredModule",
    "DimVector",
    "GammaDescriptor",
    "GroupData",
    "INFINITY",
    "MckayError",
    "Quiver",
    "QuiverRep",
    "SliceClass",
    "StabilityParam",
    "SubmoduleWitness",
    "adhm_build_cyclic",
    "are_isomorphic",
    "brute_force_stability",
    "build_group",
    "check_quot_correspondence",
    "check_relations",
    "corner_generation_bound",
    "cornered_isomorphic",
    "delta",
    "dimension_bound_check",
    "direct_sum",
    "factor_through_bound",
    "frame_quiver",
    "generated_submodule",
    "generation_degree",
    "hilbert_sequence",
    "is_flat",
    "is_stable",
    "is_sufficient",
    "j_shriek",
    "j_star",
    "make_rep",
    "max_submodule_avoiding",
    "mckay_quiver",
    "minimal_sufficient_completion",
    "molien_sequence",
    "multiply_classes",
    "parse_descriptor",
    "polystable_decomposition",
    "random_flat_rep",
    "reduce_mod_p",
    "s_equivalent",
    "stability_verdict",
    "tensor_multiplicity",
    "tensor_multiplicity_matrix",
    "theta_I",
    "triple_quiver",
    "truncated_corner_column",
    "vertex_simple",
    "vgit_push_list",
    "vgit_pushforward",
    "zero_rep",
]
