"""Hom spaces by exact linear solve, Ext^1 via the Euler form, rigidity.

Hom(M, N) is the kernel of one relation system, solved exactly over F_p:
each structure map j -> i listed by `maps_with_labels()`, with matrix X
on M and Y on N, gives f_i @ X == Y @ f_j.  A module lists its loops
(i == j) and arrows; a tensor module lists those of each slot and then
the connectors (t, i) -> (t+1, i).  For locally free modules the Euler
form computes dim Hom - dim Ext^1 on rank vectors, and by projective
dimension <= 1 there is nothing above Ext^1; Ext^1 is therefore obtained
from one Hom solve and never from an explicit resolution.
Non-locally-free inputs are rejected where Ext is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import exactlinalg as la
from . import hmod
from .cartan import RankVector, euler_form
from .errors import (
    DatumMismatch,
    InternalCheckError,
    NotAHomomorphism,
    ValidationError,
)
from .hmod import HModule

DEFAULT_ISO_TRIALS = 32
DEFAULT_ISO_EXHAUSTIVE_BUDGET = 2 ** 20
DEFAULT_RIGID_EXHAUSTIVE_BUDGET = 2 ** 22


def _check_pair(m: HModule, n: HModule):
    if m.datum != n.datum or m.k != n.k or m.p != n.p:
        raise DatumMismatch("Hom requires the same datum, k and p")


def _relations(m, n) -> list:
    """The structure maps of m and n in pairs: (label, X, Y, i, j) for the
    relation f_i @ X == Y @ f_j of a map j -> i."""
    return [(label, x, y, i, j) for (label, x, i, j), (_, y, _, _)
            in zip(m.maps_with_labels(), n.maps_with_labels())]


def intertwiner_rows(m, n, offsets: list[int],
                     total: int) -> list[np.ndarray]:
    """Equation blocks for Hom(m, n) against a global unknown layout.

    offsets[i] is the start of vec(f_i) inside a width-`total` unknown
    vector; each returned array is the block of one structure map.
    """
    rows = []
    for _, x, y, i, j in _relations(m, n):
        height = n.dims[i] * m.dims[j]
        if height == 0:
            continue
        block = np.zeros((height, total), dtype=np.int64)
        # row-major vec of f_i @ x - y @ f_j, by the unknowns f_i and f_j
        block[:, offsets[i]:offsets[i] + n.dims[i] * m.dims[i]] = \
            la.right_product_matrix(x, n.dims[i])
        block[:, offsets[j]:offsets[j] + n.dims[j] * m.dims[j]] -= \
            la.left_product_matrix(y, m.dims[j])
        rows.append(block % m.p)
    return rows


@dataclass(frozen=True, eq=False)
class HomBasis:
    """A basis of Hom(source, target); elements are per-vertex matrix tuples
    (for tensor modules, vertex (t, i) at index t*n + i)."""

    source: HModule
    target: HModule
    elements: tuple[tuple[np.ndarray, ...], ...]
    vec_basis: np.ndarray = field(repr=False)
    support: tuple[int, ...] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.elements)

    def element_from_coeffs(self, coeffs) -> tuple[np.ndarray, ...]:
        coeffs = np.asarray(coeffs, dtype=np.int64) % self.source.p
        if coeffs.shape != (self.dim,):
            raise la.DimensionMismatch("wrong number of coefficients")
        vec = (coeffs @ self.vec_basis) % self.source.p
        return _unflatten(self.source, self.target, vec)

    def coords_of(self, f) -> np.ndarray:
        vec = _flatten(self.source, self.target, f)
        return vec[list(self.support)]


def _layout(m, n) -> tuple[list[int], int]:
    offsets = []
    total = 0
    for dm, dn in zip(m.dims, n.dims):
        offsets.append(total)
        total += dn * dm
    return offsets, total


def _unflatten(m, n, vec: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-vertex matrices of a flat vector, or for a stack of vectors,
    per-vertex stacks of matrices."""
    out = []
    pos = 0
    for dm, dn in zip(m.dims, n.dims):
        out.append(vec[..., pos:pos + dn * dm].reshape(
            vec.shape[:-1] + (dn, dm)))
        pos += dn * dm
    return tuple(out)


def _flatten(m: HModule, n: HModule, f) -> np.ndarray:
    return np.concatenate([np.asarray(fi, dtype=np.int64).reshape(-1)
                           for fi in f])


def _failed_relation(relations, f, p: int) -> Optional[str]:
    """Label of the first relation that f breaks, or None; f may hold
    per-vertex stacks of matrices, which are checked all at once."""
    for label, x, y, i, j in relations:
        if ((f[i] @ x - y @ f[j]) % p).any():
            return label
    return None


def is_homomorphism(m: HModule, n: HModule, f) -> bool:
    return _failed_relation(_relations(m, n), f, m.p) is None


def _hom_basis(m, n) -> HomBasis:
    """Kernel of the relation system of m and n.  All basis elements are
    re-checked by substitution into every relation; the modules only need
    `p`, `dims` and `maps_with_labels()`."""
    offsets, total = _layout(m, n)
    blocks = intertwiner_rows(m, n, offsets, total)
    if total == 0:
        return HomBasis(m, n, (), la.zeros(0, 0), ())
    system = (np.concatenate(blocks, axis=0) if blocks
              else la.zeros(0, total))
    basis, support = la.kernel_basis_and_support(system, m.p)
    label = _failed_relation(_relations(m, n), _unflatten(m, n, basis), m.p)
    if label is not None:
        raise InternalCheckError(
            f"Hom basis element breaks the relation of {label}")
    elements = tuple(_unflatten(m, n, row) for row in basis)
    return HomBasis(m, n, elements, basis, support)


def hom_space(m: HModule, n: HModule) -> HomBasis:
    """Basis of Hom(m, n); every basis element is re-checked by substitution."""
    _check_pair(m, n)
    return _hom_basis(m, n)


def compose(f, g, p: int) -> tuple[np.ndarray, ...]:
    """f after g, per vertex."""
    return tuple((fi @ gi) % p for fi, gi in zip(f, g))


def identity_hom(m: HModule) -> tuple[np.ndarray, ...]:
    return tuple(la.identity(d) for d in m.dims)


def ext1_dim(m: HModule, n: HModule) -> int:
    """dim Ext^1 = dim Hom - <rk m, rk n> for locally free modules."""
    _check_pair(m, n)
    rm = hmod.rank_vector(m)
    rn = hmod.rank_vector(n)
    value = hom_space(m, n).dim - euler_form(m.datum, rm, rn, k=m.k)
    if value < 0:
        raise InternalCheckError(
            f"negative Ext dimension {value}; Euler form bound violated")
    return value


def is_rigid(m: HModule) -> bool:
    return ext1_dim(m, m) == 0


# --- isomorphism testing -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class IsoResult:
    isomorphic: bool
    certain: bool
    witness: Optional[tuple[np.ndarray, ...]] = None

    def __bool__(self) -> bool:
        return self.isomorphic


def _invertible_everywhere(f, p: int) -> bool:
    return all(fi.shape[0] == fi.shape[1] and la.rank(fi, p) == fi.shape[0]
               for fi in f)


def are_isomorphic(m: HModule, n: HModule,
                   trials: int = DEFAULT_ISO_TRIALS,
                   seed=0,
                   exhaustive_budget: int = DEFAULT_ISO_EXHAUSTIVE_BUDGET
                   ) -> IsoResult:
    """Search Hom(m, n) for an invertible element.

    Dimension vectors must match; then random Hom elements are tried, with
    a full scan of the Hom space when p^dim fits the budget.  `certain` is
    False only for a negative answer that rests on sampling alone.
    """
    _check_pair(m, n)
    if m.dims != n.dims:
        return IsoResult(False, True)
    if m.total_dim() == 0:
        return IsoResult(True, True, tuple(la.identity(0)
                                           for _ in range(m.n)))
    basis = hom_space(m, n)
    if basis.dim == 0:
        return IsoResult(False, True)
    p = m.p
    rng = la.rng_from(seed)
    for _ in range(trials):
        coeffs = rng.integers(0, p, size=basis.dim)
        if not coeffs.any():
            continue
        f = basis.element_from_coeffs(coeffs)
        if _invertible_everywhere(f, p):
            return IsoResult(True, True, f)
    if p ** basis.dim <= exhaustive_budget:
        for code in range(1, p ** basis.dim):
            coeffs = _digits(code, p, basis.dim)
            f = basis.element_from_coeffs(coeffs)
            if _invertible_everywhere(f, p):
                return IsoResult(True, True, f)
        return IsoResult(False, True)
    return IsoResult(False, False)


def _digits(code: int, p: int, width: int) -> np.ndarray:
    out = np.zeros(width, dtype=np.int64)
    for t in range(width):
        code, digit = divmod(code, p)
        out[t] = digit
    return out


# --- rigid search -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RigidSearch:
    module: Optional[HModule]
    trials_used: int
    hits: int
    exhaustive: bool
    none_exists: bool
    seed: object = None

    def found(self) -> bool:
        return self.module is not None


def find_rigid(datum, k: int, p: int, r, trials: int = 200, seed=0,
               exhaustive_budget: int = DEFAULT_RIGID_EXHAUSTIVE_BUDGET
               ) -> RigidSearch:
    """Sample the structure-matrix space for a rigid module of rank r.

    Stops at the first rigid hit.  When nothing is found and the space has
    at most `exhaustive_budget` points it is scanned completely, in which
    case a negative answer means no rigid module of this rank exists over
    F_p; otherwise absence is only "none found".
    """
    r = RankVector(r)
    for t in range(trials):
        mod = hmod.random_locally_free(datum, k, p, r, seed=(seed, t))
        if is_rigid(mod):
            return RigidSearch(mod, t + 1, 1, False, False, seed)
    n_params = hmod.structure_parameter_count(datum, k, r)
    if p ** n_params <= exhaustive_budget:
        for count, s in enumerate(hmod.iter_structure_matrices(
                datum, k, p, r)):
            mod = hmod.from_structure_matrices(s)
            if is_rigid(mod):
                return RigidSearch(mod, trials + count + 1, 1, True, False,
                                   seed)
        return RigidSearch(None, trials + p ** n_params, 0, True, True, seed)
    return RigidSearch(None, trials, 0, False, False, seed)


# --- number of parameters -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class ParameterEstimate:
    """Upper-bound estimate of the number of parameters of a rank vector.

    value = (min over sampled modules of dim End) - <r, r>; the minimum can
    only go down with more samples, so this is an upper bound that is exact
    when the scan was exhaustive.  Always experimental output.
    """

    value: int
    min_end_dim: int
    quadratic_form: int
    samples: int
    exhaustive: bool
    experimental: bool = True


def parameter_estimate(datum, k: int, p: int, r, samples: int = 200, seed=0,
                       exhaustive_budget: int = DEFAULT_RIGID_EXHAUSTIVE_BUDGET
                       ) -> ParameterEstimate:
    r = RankVector(r)
    q = euler_form(datum, r, r, k=k)
    n_params = hmod.structure_parameter_count(datum, k, r)
    best = None
    if p ** n_params <= exhaustive_budget:
        count = 0
        for s in hmod.iter_structure_matrices(datum, k, p, r):
            mod = hmod.from_structure_matrices(s)
            d = hom_space(mod, mod).dim
            best = d if best is None else min(best, d)
            count += 1
        return ParameterEstimate(best - q, best, q, count, True)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    for t in range(samples):
        mod = hmod.random_locally_free(datum, k, p, r, seed=(seed, t))
        d = hom_space(mod, mod).dim
        best = d if best is None else min(best, d)
    return ParameterEstimate(best - q, best, q, samples, False)


def check_homomorphism(m: HModule, n: HModule, f) -> tuple[np.ndarray, ...]:
    """Coerce and verify a per-vertex matrix tuple as a homomorphism."""
    f = tuple(np.asarray(fi, dtype=np.int64) % m.p for fi in f)
    if len(f) != m.n or any(fi.shape != (n.dims[i], m.dims[i])
                            for i, fi in enumerate(f)):
        raise NotAHomomorphism("component shapes do not match")
    if not is_homomorphism(m, n, f):
        raise NotAHomomorphism("intertwiner equations fail")
    return f
