"""Hom spaces by exact linear solve, Ext^1 via the Euler form, rigidity.

A Hom system is a relation list: (label, X, Y, i, j) means f_i @ X ==
Y @ f_j.  Hom(M, N) solves the list `_relations` pairs from the maps
j -> i of `maps_with_labels()` on M and N (loops, arrows and, for chains,
the connectors (t, i) -> (t+1, i) of `flagvar._chain_maps`); a tangent
space reads its list off the flag check.  One solver, `_hom_kernel`,
serves all of them exactly over F_p, and the reduction fibers take their
rows from its assembler, `intertwiner_rows`.

The unknowns are the images of the generators (Lux and Szőke, Exp. Math.
12, 2003).  Every vertex v has an order o >= 1.  When some self-map pair
at v has both matrices generator-major nilpotent Jordan of one block size
(ones at [s*o + t + 1, s*o + t], zeros elsewhere), as in standard loop
form, o is that block size for the first such pair in relation order, and
f_v commutes with that pair exactly when f_v = hmod.ring_to_matrix(theta,
o, o) for an s x r matrix theta over F_p[x]/(x^o); the pair holds by
construction and gets no equation rows.  Every other vertex has o = 1 and
nothing built in: theta over F_p[x]/(x) = F_p is f_v itself.  The
unknowns of f_v are theta, ordered (s, u, o-1-t): coefficient lists in
descending degree.  Where each one lands in f_v is one rule, the label
matrices of `Layout.of` (ring_to_matrix of the unknowns' columns): the
equation rows place X, and Y transposed, by them, and the expansion
gathers by them.

Unknown (s, u, o-1-t) is the last entry of its support in the row-major
f_v, at [s*o + o-1, u*o + o-1-t], and this map is increasing.  So the
kernel basis, expanded to the f_v, is exactly the echelon basis of the
same kernel solved over all entries, with no further elimination, and the
last non-zero column of each of its rows is that row's free column there:
`HomBasis.support`, where coordinates are read off.  Every expanded basis
element is substituted into every relation, the built-in ones included.

For locally free modules the Euler form computes dim Hom - dim Ext^1 on
rank vectors, and by projective dimension <= 1 there is nothing above
Ext^1; Ext^1 is therefore obtained from one Hom solve and never from an
explicit resolution.
Non-locally-free inputs are rejected where Ext is involved.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import exactlinalg as la
from . import hmod
from .cartan import euler_form, read_int, read_value
from .errors import InternalCheckError, NotAHomomorphism
from .hmod import HModule

# read by are_isomorphic at each call, not bound as defaults
ISO_TRIALS = 32
ISO_EXHAUSTIVE_BUDGET = 2 ** 20


def _relations(m, n) -> list:
    """The structure maps of m and n in pairs: (label, X, Y, i, j) for the
    relation f_i @ X == Y @ f_j of a map j -> i."""
    return [(label, x, y, i, j) for (label, x, i, j), (_, y, _, _)
            in zip(m.maps_with_labels(), n.maps_with_labels())]


@dataclass(frozen=True, eq=False)
class Layout:
    """The unknowns of a Hom system, vertex after vertex: bounds[v] to
    bounds[v+1] are those of f_v, the s x r matrix over F_p[x]/(x^o) of
    f_v for o = orders[v] >= 1, coefficient lists in descending degree (at
    o = 1 the row-major entries of f_v).  labels[v] is f_v with each entry
    replaced by the 1-based column of the unknown it reads, and 0 where f_v
    is 0: hmod.ring_to_matrix of the unknowns' columns, the one rule for
    where an unknown lands.  No two entries in one row or one column read
    the same unknown.  `built_in` indexes the relations that hold by
    construction and get no equation rows."""

    bounds: tuple[int, ...]
    orders: tuple[int, ...]
    built_in: frozenset[int]
    labels: tuple[np.ndarray, ...] = field(repr=False)

    @classmethod
    def of(cls, dims_m, dims_n, orders, built_in) -> Layout:
        """dn * dm / o unknowns per vertex, labelled by ring_to_matrix."""
        bounds, labels = [0], []
        for dm, dn, o in zip(dims_m, dims_n, orders):
            start = bounds[-1]
            bounds.append(start + dn * dm // o)
            columns = np.arange(start + 1, bounds[-1] + 1)
            labels.append(hmod.ring_to_matrix(
                columns.reshape(dn // o, dm // o, o)[..., ::-1], o, o))
        return cls(tuple(bounds), tuple(orders), frozenset(built_in),
                   tuple(labels))

    @property
    def total(self) -> int:
        return self.bounds[-1]

    def columns(self, v: int) -> slice:
        return slice(self.bounds[v], self.bounds[v + 1])


def _layout(dims_m, dims_n, relations) -> Layout:
    """The unknowns of a Hom system between modules of dims dims_m and
    dims_n: at each vertex with a self-map pair whose matrices are both
    Jordan of one block size o, the first such pair is built in and the
    vertex has order o; every other vertex has order 1."""
    orders = [1] * len(dims_m)
    built_in = {}                                        # vertex -> index
    for index, (_, x, y, i, j) in enumerate(relations):
        if i == j and i not in built_in:
            o = hmod._jordan_order(x)
            if 0 < o == (o if y is x else hmod._jordan_order(y)):
                orders[i] = o
                built_in[i] = index
    return Layout.of(dims_m, dims_n, orders, built_in.values())


def _placed(labels: np.ndarray, x: np.ndarray, total: int) -> np.ndarray:
    """The matrix of f -> f @ x on the unknowns, as (rows of f, columns of
    x, total): entry [a, b] of f reads unknown labels[a, b], which meets
    row b of x in row a of f @ x, so row b of x is written at [a, :,
    labels[a, b]].  No two entries of a row of f read one unknown, so the
    writes never collide but on label 0, whose column is dropped."""
    out = np.zeros((labels.shape[0], x.shape[1], total + 1), dtype=np.int64)
    out[np.arange(labels.shape[0])[:, None], :, labels] = x
    return out[..., 1:]


def intertwiner_rows(relations, layout: Layout, p: int) -> list[np.ndarray]:
    """The one assembler of Hom equations, for every solve and fiber: per
    relation (label, X, Y, i, j) with rows that does not hold by
    construction, the row-major vec of f_i @ X - Y @ f_j over the unknowns
    of `layout`, of height Y.shape[0] * X.shape[1].  Both terms are placed
    by the labels: Y @ f_j as (f_j^T @ Y^T)^T, its rows put back in
    row-major order."""
    rows = []
    for index, (_, x, y, i, j) in enumerate(relations):
        height = y.shape[0] * x.shape[1]
        if height == 0 or index in layout.built_in:
            continue
        block = (_placed(layout.labels[i], x, layout.total)
                 - _placed(layout.labels[j].T, y.T,
                           layout.total).transpose(1, 0, 2))
        rows.append(block.reshape(height, layout.total) % p)
    return rows


def _expand(layout: Layout, theta) -> np.ndarray:
    """Dense vecs (the row-major f_v, vertex after vertex) of a stack of
    solutions over `layout`: [0 | theta] gathered by the labels."""
    padded = np.concatenate([la.zeros(len(theta), 1), theta], axis=1)
    return padded[:, _flatten(layout.labels)]


@dataclass(frozen=True, eq=False)
class HomBasis:
    """A basis of Hom(source, target): the rows of vec_basis, the echelon
    kernel basis over all entries, so an element's coordinates are its
    entries at `support`; elements are the same rows as per-vertex matrix
    tuples (for tensor modules, vertex (t, i) at index t*n + i), built on
    first access."""

    source: HModule
    target: HModule
    vec_basis: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.vec_basis.shape[0]

    @property
    def support(self) -> tuple[int, ...]:
        """The last non-zero column of each row: its free column in the
        echelon kernel basis, 1 there and 0 in the other rows."""
        return tuple(int(np.flatnonzero(row)[-1]) for row in self.vec_basis)

    @functools.cached_property
    def elements(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return tuple(_unflatten(self.source.dims, self.target.dims, row)
                     for row in self.vec_basis)

    def element_from_coeffs(self, coeffs) -> tuple[np.ndarray, ...]:
        coeffs = la.integer_array(coeffs) % self.source.p
        if coeffs.shape != (self.dim,):
            raise la.DimensionMismatch("wrong number of coefficients")
        vec = (coeffs @ self.vec_basis) % self.source.p
        return _unflatten(self.source.dims, self.target.dims, vec)

    def coords_of(self, f) -> np.ndarray:
        """The coordinates on this basis of the homomorphism f, given as
        per-vertex matrices (entries read mod p), or of each one in
        per-vertex stacks (..., rows, cols) of them.  Raises
        NotAHomomorphism when f has the wrong number or shapes of
        components, or lies outside the span of the basis."""
        p = self.source.p
        f = [la.integer_array(fi) for fi in f]
        lead = f[0].shape[:-2] if f else ()
        if len(f) != len(self.source.dims) or any(
                fi.shape != lead + (dn, dm) for fi, dm, dn
                in zip(f, self.source.dims, self.target.dims)):
            raise NotAHomomorphism("component shapes do not match")
        vec = _flatten(f) % p
        coords = vec[..., list(self.support)]
        if ((coords @ self.vec_basis - vec) % p).any():
            raise NotAHomomorphism("not in the span of the Hom basis")
        return coords


def _unflatten(dims_m, dims_n, vec: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-vertex matrices of a flat vector, or for a stack of vectors,
    per-vertex stacks of matrices."""
    out = []
    pos = 0
    for dm, dn in zip(dims_m, dims_n):
        out.append(vec[..., pos:pos + dn * dm].reshape(
            vec.shape[:-1] + (dn, dm)))
        pos += dn * dm
    return tuple(out)


def _flatten(f) -> np.ndarray:
    """The flat vector of per-vertex matrices (arrays), or the flat vectors
    of per-vertex stacks of them; the inverse of `_unflatten`."""
    return np.concatenate([fi.reshape(fi.shape[:-2] + (-1,)) for fi in f],
                          axis=-1)


def _failed_relation(relations, f, p: int) -> Optional[str]:
    """Label of the first relation that f breaks, or None; f may hold
    per-vertex stacks of matrices, which are checked all at once."""
    for label, x, y, i, j in relations:
        if ((f[i] @ x - y @ f[j]) % p).any():
            return label
    return None


def is_homomorphism(m: HModule, n: HModule, f) -> bool:
    return _failed_relation(_relations(m, n), f, m.p) is None


def _hom_kernel(relations, dims_m, dims_n, p: int) -> np.ndarray:
    """The one solver of Hom systems (hom_space, hom_tensor, tangent
    spaces): the dense basis vecs of the kernel of a relation list between
    dims dims_m and dims_n, solved over `_layout`; every basis element is
    re-checked by substitution into every relation."""
    layout = _layout(dims_m, dims_n, relations)
    blocks = intertwiner_rows(relations, layout, p)
    if layout.total == 0:
        return la.zeros(0, 0)
    system = np.concatenate([la.zeros(0, layout.total), *blocks])
    basis = _expand(layout, la.kernel_basis_matrix(system, p))
    label = _failed_relation(relations, _unflatten(dims_m, dims_n, basis), p)
    if label is not None:
        raise InternalCheckError(
            f"Hom basis element breaks the relation of {label}")
    return basis


def _hom_basis(m, n) -> HomBasis:
    """Hom(m, n) for modules that only need `p`, `dims` and
    `maps_with_labels()`, by one `_hom_kernel` solve of their relations."""
    return HomBasis(m, n, _hom_kernel(_relations(m, n), m.dims, n.dims, m.p))


def hom_space(m: HModule, n: HModule) -> HomBasis:
    """Basis of Hom(m, n); every basis element is re-checked by substitution."""
    hmod._same_algebra(m, n)
    return _hom_basis(m, n)


def compose(f, g, p: int) -> tuple[np.ndarray, ...]:
    """f after g, per vertex."""
    return tuple((fi @ gi) % p for fi, gi in zip(f, g))


def identity_hom(m: HModule) -> tuple[np.ndarray, ...]:
    return tuple(la.identity(d) for d in m.dims)


def ext1_dim(m: HModule, n: HModule) -> int:
    """dim Ext^1 = dim Hom - <rk m, rk n> for locally free modules."""
    hmod._same_algebra(m, n)
    rm = hmod.rank_vector(m)
    rn = rm if n is m else hmod.rank_vector(n)
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


def are_isomorphic(m: HModule, n: HModule, seed=0) -> IsoResult:
    """Search Hom(m, n) for an invertible element.

    Dimension vectors must match; literally equal modules are isomorphic
    by the identity, with no search; otherwise ISO_TRIALS random Hom
    elements are tried, with a full scan of the Hom space when p^dim is at
    most ISO_EXHAUSTIVE_BUDGET.  `certain` is False only for a negative
    answer that rests on sampling alone.
    """
    hmod._same_algebra(m, n)
    if m.dims != n.dims:
        return IsoResult(False, True)
    if hmod.modules_equal(m, n):
        return IsoResult(True, True, identity_hom(m))
    basis = hom_space(m, n)
    if basis.dim == 0:
        return IsoResult(False, True)
    p = m.p
    rng = la.rng_from(seed)
    for _ in range(ISO_TRIALS):
        coeffs = rng.integers(0, p, size=basis.dim)
        if not coeffs.any():
            continue
        f = basis.element_from_coeffs(coeffs)
        if _invertible_everywhere(f, p):
            return IsoResult(True, True, f)
    if p ** basis.dim <= ISO_EXHAUSTIVE_BUDGET:
        for block in la.digit_chunks(p, basis.dim, start=1):
            for coeffs in block:
                f = basis.element_from_coeffs(coeffs)
                if _invertible_everywhere(f, p):
                    return IsoResult(True, True, f)
        return IsoResult(False, True)
    return IsoResult(False, False)


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


def find_rigid(datum, k: int, p: int, r, trials: int = 200, seed=0
               ) -> RigidSearch:
    """Sample the structure-matrix space for a rigid module of rank r.

    Stops at the first rigid hit.  When nothing is found and the space has
    at most hmod.STRUCTURE_SPACE_BUDGET points it is scanned completely, in
    which case a negative answer means no rigid module of this rank exists
    over F_p; otherwise absence is only "none found".
    """
    trials = read_int(trials, "trials", 0)
    # the trials are samples (seed, t); then the full scan, or nothing past
    # the budget
    exhaustive, points = hmod.structure_space(datum, k, p, r, 0, seed)
    trial_modules = (hmod.random_locally_free(datum, k, p, r, (seed, t))
                     for t in range(trials))
    used = 0
    for used, mod in enumerate(itertools.chain(trial_modules, points), 1):
        if is_rigid(mod):
            return RigidSearch(mod, used, 1, exhaustive and used > trials,
                               False, seed)
    return RigidSearch(None, used, 0, exhaustive, exhaustive, seed)


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


def parameter_estimate(datum, k: int, p: int, r, samples: int = 200, seed=0
                       ) -> ParameterEstimate:
    samples = read_int(samples, "samples", 1)
    exhaustive, modules = hmod.structure_space(datum, k, p, r, samples,
                                               seed)
    q = euler_form(datum, r, r, k=k)
    dims = collections.Counter(hom_space(mod, mod).dim for mod in modules)
    best = min(dims)
    return ParameterEstimate(best - q, best, q, sum(dims.values()),
                             exhaustive)


def check_homomorphism(m: HModule, n: HModule, f) -> tuple[np.ndarray, ...]:
    """Coerce and verify a per-vertex matrix tuple as a homomorphism."""
    hmod._same_algebra(m, n)
    f = tuple(la.integer_array(fi) % m.p
              for fi in read_value(tuple, f, "bad homomorphism"))
    if len(f) != m.n or any(fi.shape != (n.dims[i], m.dims[i])
                            for i, fi in enumerate(f)):
        raise NotAHomomorphism("component shapes do not match")
    if not is_homomorphism(m, n, f):
        raise NotAHomomorphism("intertwiner equations fail")
    return f
