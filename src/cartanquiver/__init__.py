"""Exact computation with quiver algebras of symmetrizable Cartan matrices.

The level-k algebra of a datum (C, D, Omega) is the path algebra of the
quiver with one nilpotent loop per vertex (order k*c_i) and g_ij parallel
arrows per oriented pair, modulo the nilpotency and commutation relations.
This package computes with its finite-dimensional representations over
prime fields: local freeness and rank vectors, Hom/Ext and rigidity, the
reduction functor to level k-1, Krull-Schmidt and canonical decompositions
of rank vectors, and enumeration / point counting of flag varieties of
locally free submodules.
"""

__version__ = "0.1.0"

from .cartan import (
    CartanDatum,
    Quiver,
    RankVector,
    build_quiver,
    euler_form,
    flag_dimension,
    load_config,
    suggest_orientation,
    symmetrizer_form,
    validate_cartan,
    validate_orientation,
)
from .exactlinalg import Subspace, gaussian_binomial
from .hmod import (
    HModule,
    StructureMatrices,
    direct_sum,
    free_module,
    from_structure_matrices,
    is_locally_free,
    random_locally_free,
    rank_vector,
    reduce_mod_p,
    sub_quotient,
    to_structure_matrices,
    validate_module,
)
from .homext import (
    are_isomorphic,
    ext1_dim,
    find_rigid,
    hom_space,
    is_rigid,
    parameter_estimate,
)
from .reduction import (
    epsilon_filtration_check,
    reduce,
    reduce_hom,
    rigid_transfer_check,
)
from .gendecomp import (
    canonical_decomposition,
    ext_generic,
    is_schur_root,
    k_independence_check,
    krull_schmidt,
)
from .flagvar import (
    FlagOfSubmodules,
    PointCountTable,
    TensorModule,
    bundle_ratio_check,
    closed_form_flag_count_no_arrows,
    count_locally_free_submodules,
    counting_polynomial,
    fiber_of_reduction,
    hom_tensor,
    iter_flags,
    point_count,
    reduce_flag,
    tangent_dimension,
)
