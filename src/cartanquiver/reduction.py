"""The reduction functor between symmetrizer levels k and k-1.

With eps = sum_i eps_i^(c_i) central and eps^k = 0, reduction sends a
level-k module M to M / eps^(k-1) M; at vertex i this quotients M_i by the
image of Eps_i^((k-1)*c_i).  On locally free modules it preserves rank
vectors.  `hmod.quotient` cuts along eps^(k-1) M, which for a module in
standard form is spanned by unit vectors of the standard Jordan basis, so
reducing a free module in standard form gives literally the standard free
module one level down.

The functor has one direction.  A module is read at another level by its
structure entries, cut or zero-padded to the new truncated polynomial ring
(`module_at_level`); the flags over a lower-level flag are the fiber of
`flagvar.fiber_of_reduction`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactlinalg as la
from . import hmod, homext
from .cartan import CartanDatum, RankVector, read_int
from .errors import (
    KTooSmall,
    InternalCheckError,
    NotLocallyFree,
)
from .hmod import HModule


def reduce(m: HModule) -> hmod.Quotient:
    """Quotient by eps^(k-1) M, validated over the level-(k-1) algebra,
    the functor's own claim (`_quotient_at_level` at a = k - 1).  When m
    is in standard form, so is its reduction, with m's entries at the
    coordinates of loop degree below (k-1)*c_i."""
    if hmod.read_module(m).k < 2:
        raise KTooSmall("reduction needs k >= 2")
    return _quotient_at_level(m, m.k - 1)


def _quotient_at_level(m: HModule, a: int) -> hmod.Quotient:
    """M / eps^a M (1 <= a <= k), cut by `hmod.quotient` at level a along
    eps^a M.  For a module in standard form, eps^a M_i is the coordinate
    subspace of loop degree >= a*c_i (a submodule because eps is central),
    and each block is its map's slice on the lower degrees; for any other
    module it is the image of `hmod.epsilon_blocks(m, a)`."""
    if not m.standard_form:
        return hmod.quotient(
            m, [la.image(x, m.p) for x in hmod.epsilon_blocks(m, a)], a)
    return hmod.quotient(m, [
        la.Subspace.coordinate([c for c in range(d)
                                if c % m.loop_order(i) >= a * m.datum.d[i]],
                               d, m.p)
        for i, d in enumerate(m.dims)], a)


def module_at_level(m: HModule, k_new: int) -> HModule:
    """The module of a locally free module's structure entries read at
    level k_new: each coefficient list is cut or zero-padded from k*c_i
    to k_new*c_i.

    Cutting agrees with iterated reduction.  Padding one level up gives a
    module that reduces back to m; when the leading generators at each
    vertex span a submodule of m, they span one of the padded module too,
    a point of `flagvar.fiber_of_reduction` over the flag they give below.
    """
    k_new = read_int(k_new, "k_new", 1, KTooSmall)
    s = hmod.to_structure_matrices(m)
    mats = {}
    for (i, j), arr in s.mats.items():
        resized = np.zeros(arr.shape[:2] + (k_new * s.datum.d[i],),
                           dtype=np.int64)
        resized[:, :, :arr.shape[2]] = arr[:, :, :resized.shape[2]]
        mats[(i, j)] = resized
    return hmod.from_structure_matrices(
        hmod.structure_from_arrays(s.datum, k_new, s.p, s.rank, mats))


def reduce_hom(m: HModule, n: HModule, f) -> tuple[np.ndarray, ...]:
    """Induced map between the reductions; functorial by construction."""
    f = homext.check_homomorphism(m, n, f)
    red_m = reduce(m)
    red_n = reduce(n)
    fbar = red_n.induced(red_m, f)
    if not homext.is_homomorphism(red_m.module, red_n.module, fbar):
        raise InternalCheckError("reduce_hom: image is not a homomorphism")
    return fbar


# --- reports ------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RigidTransferReport:
    rank: RankVector
    k_max: int
    p: int
    exists: dict
    pattern_consistent: bool
    reductions_rigid: bool
    reductions_match: bool
    details: tuple

    @property
    def ok(self) -> bool:
        return (self.pattern_consistent and self.reductions_rigid
                and self.reductions_match)


def rigid_transfer_check(datum: CartanDatum, p: int, r, k_max: int,
                         trials: int = 200, seed=0) -> RigidTransferReport:
    """Search rigids at k = 1..k_max; reductions of upper-level rigids must
    be rigid and isomorphic to the rigid found one level down, and the
    existence pattern must not depend on k."""
    k_max = read_int(k_max, "k_max", 1)
    r = RankVector(r)
    found = {k: homext.find_rigid(datum, k, p, r, trials=trials,
                                  seed=(seed, k))
             for k in range(1, k_max + 1)}
    exists = {k: found[k].found() for k in found}
    pattern = len(set(exists.values())) <= 1
    details = []
    red_rigid = True
    red_match = True
    for k in range(k_max, 1, -1):
        if not (found[k].found() and found[k - 1].found()):
            continue
        reduced = reduce(found[k].module).module
        rig = homext.is_rigid(reduced)
        iso = homext.are_isomorphic(reduced, found[k - 1].module,
                                    seed=(seed, "iso", k))
        red_rigid = red_rigid and rig
        red_match = red_match and iso.isomorphic
        details.append({"k": k, "reduced_rigid": rig,
                        "isomorphic_to_lower": iso.isomorphic,
                        "certain": iso.certain})
    return RigidTransferReport(r, k_max, p, exists, pattern, red_rigid,
                               red_match, tuple(details))


@dataclass(frozen=True, eq=False)
class EpsilonFiltrationReport:
    layer_dims: tuple            # [j][i] = dim of layer j at vertex i
    layers_equal: bool
    multiplication_bijective: bool

    @property
    def ok(self) -> bool:
        return self.layers_equal and self.multiplication_bijective


def epsilon_filtration_check(m: HModule) -> EpsilonFiltrationReport:
    """All k successive eps-layers of a locally free module have the same
    dimension vector and eps maps each onto the next bijectively."""
    if not hmod.is_locally_free(m):
        raise NotLocallyFree("filtration check needs a locally free module")
    ranks = [[la.rank(x, m.p) for x in hmod.epsilon_blocks(m, j)]
             for j in range(m.k + 1)]
    layer_dims = tuple(
        tuple(ranks[j][i] - ranks[j + 1][i] for i in range(m.n))
        for j in range(m.k))
    equal = len(set(layer_dims)) <= 1
    bijective = all(
        layer_dims[j] == layer_dims[j + 1] for j in range(m.k - 1))
    return EpsilonFiltrationReport(layer_dims, equal, bijective)
