"""Representations of the quiver algebra with symmetrizer k*D over F_p.

A module is a tuple of F_p-spaces M_i with a nilpotent loop matrix Eps_i of
order k*c_i at each vertex and an arrow matrix A_ij^(g): M_j -> M_i for
each oriented pair and each of its g_ij parallel arrows, subject to

    (H1)  Eps_i ** (k*c_i) == 0
    (H2)  Eps_i ** f_ji  @ A_ij^(g) == A_ij^(g) @ Eps_j ** f_ij.

M is locally free when every M_i is free over the truncated polynomial
ring F_p[eps_i]/(eps_i^(k*c_i)); its rank vector is (dim M_i / (k*c_i))_i.
Locally free modules are normalized so that each loop is a direct sum of
nilpotent Jordan blocks of full size k*c_i, ordered generator-major: basis
index s*(k*c_i) + t holds eps_i^t applied to generator s.  This standard
form is read off the loops (`HModule.standard_form`) and implies local
freeness; in it the module is equivalently described by its structure
matrices: for each oriented pair (i,j) a matrix over
F_p[eps_i]/(eps_i^(k*c_i)) of shape r_i x (|c_ij| * r_j), column (u, g, t)
recording the image of alpha^(g) eps_j^t applied to generator u of M_j
(0 <= t < f_ij).  Higher twists follow from the rewriting rule

    alpha^(g) eps_j^(a*f_ij + t)  =  eps_i^(a*f_ji) alpha^(g) eps_j^t,

which is the (H2) relation in normal form.  ring_to_matrix and
matrix_to_ring convert between ring entries and generator-major matrices.

A module is its matrices: its integer lift, used for cross-prime counts, is
its entries read as integers in 0..p-1 (`reduce_mod_p`).

Sub and quotient modules along per-vertex invariant subspaces are read off
their RREF bases: a quotient from the checked blocks of `_blocks`, validated
at its level, and a restriction by one rule, `_restrict`, valid by
construction and not validated again (the sub half of `sub_quotient`, the
Krull-Schmidt pieces and the chart records of the flag recursion).
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass
from collections.abc import Iterator, Mapping
from typing import Optional

import numpy as np

from . import exactlinalg as la
from .cartan import (CartanDatum, RankVector, integers, read_datum,
                     read_int, read_value)
from .errors import (
    DatumMismatch,
    EntryDegreeOverflow,
    InternalCheckError,
    KTooSmall,
    NotInvariant,
    NotLocallyFree,
    RelationBrokenAtPrime,
    RelationH1Violated,
    RelationH2Violated,
    ShapeMismatch,
    ValidationError,
)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class HModule:
    """A representation of the level-k algebra over F_p.

    `eps[i]` is the loop matrix at vertex i, `arrows[(i, j)][g]` the matrix
    of the g-th arrow j -> i.  `make_module` stores read-only matrices and a
    read-only `arrows` mapping, so a module never changes once built and
    data derived from it may be kept while it lives (as
    `flagvar._reduction_data` does).  Everything else is read off these
    matrices: `standard_form` and local freeness off the Jordan orders of
    the loops, read once per module (`jordan_orders`), literal equality
    off one key (`content`), and the integer lift of `reduce_mod_p` is
    the entries read as integers in 0..p-1.
    """

    datum: CartanDatum
    k: int
    p: int
    dims: tuple[int, ...]
    eps: tuple[np.ndarray, ...]
    arrows: Mapping[tuple[int, int], tuple[np.ndarray, ...]]

    @property
    def n(self) -> int:
        return self.datum.n

    def loop_order(self, i: int) -> int:
        return self.k * self.datum.d[i]

    def total_dim(self) -> int:
        return sum(self.dims)

    @functools.cached_property
    def jordan_orders(self) -> tuple[int, ...]:
        """`_jordan_order` of each loop, kept while the module lives."""
        return tuple(map(_jordan_order, self.eps))

    @property
    def content(self) -> tuple:
        """The dims and the bytes of the loops and arrows in map order:
        equal for two modules of one (datum, k, p) exactly when they are
        literally equal."""
        arrows = (a for key in sorted(self.arrows) for a in self.arrows[key])
        return self.dims, b"".join(x.tobytes() for x in (*self.eps, *arrows))

    @property
    def standard_form(self) -> bool:
        """Whether every loop is the generator-major Jordan matrix with
        blocks of full size k*c_i (an empty loop is)."""
        return all(not d or o == self.loop_order(i)
                   for i, (d, o) in enumerate(zip(self.dims,
                                                  self.jordan_orders)))

    def maps_with_labels(self):
        """All structure maps as (label, matrix, target vertex, source vertex)."""
        out = [(f"eps_{i + 1}", self.eps[i], i, i) for i in range(self.n)]
        for (i, j), mats in sorted(self.arrows.items()):
            for g, a in enumerate(mats):
                out.append((f"alpha_{i + 1}{j + 1}^{g + 1}", a, i, j))
        return out


def _jordan_order(x: np.ndarray) -> int:
    """The block size o when x is the generator-major nilpotent Jordan
    matrix with blocks of size o (ones at [s*o + t + 1, s*o + t], zeros
    everywhere else), and 0 otherwise."""
    dim = x.shape[0]
    if dim == 0:
        return 0
    sub = x.ravel()[dim::dim + 1].tolist()      # the entries x[t + 1, t]
    o = sub.index(0) + 1 if 0 in sub else dim
    if dim % o or sub != [int(t % o != o - 1) for t in range(dim - 1)]:
        return 0
    return o if np.count_nonzero(x) == dim - dim // o else 0


def make_module(datum: CartanDatum, k: int, p: int, eps, arrows) -> HModule:
    """Assemble and validate a module from a sequence of loop matrices and a
    mapping (or None) from oriented pairs to sequences of arrow matrices."""
    la.check_prime(p)
    k = read_int(k, "k", 1, KTooSmall)
    eps_t = tuple(_frozen(la.integer_array(e) % p)
                  for e in read_value(tuple, eps, "bad loop matrices"))
    if len(eps_t) != read_datum(datum).n:
        raise ShapeMismatch(
            f"need {datum.n} loop matrices, got {len(eps_t)}")
    dims = tuple(e.shape[0] for e in eps_t)
    arrows = {} if arrows is None else arrows
    _check_pairs(arrows, datum.oriented_pairs(), "arrow matrices")
    arr = {}
    for i, j in datum.oriented_pairs():
        mats = arrows.get((i, j))
        g_count = datum.g(i, j)
        if mats is None:
            mats = [la.zeros(dims[i], dims[j]) for _ in range(g_count)]
        mats = read_value(tuple, mats, f"bad arrows ({i + 1},{j + 1})")
        if len(mats) != g_count:
            raise ShapeMismatch(
                f"pair ({i + 1},{j + 1}) needs {g_count} arrow matrices")
        arr[(i, j)] = tuple(
            _frozen(la.integer_array(a) % p) for a in mats)
    mod = HModule(datum, k, p, dims, eps_t, types.MappingProxyType(arr))
    validate_module(mod)
    return mod


def _check_pairs(given, pairs, what: str) -> None:
    """Raise ValidationError unless `given` is a mapping, and ShapeMismatch
    for its keys that are not among `pairs`, the oriented pairs."""
    if not isinstance(given, Mapping):
        raise ValidationError(f"{what} must map oriented pairs, got "
                              f"{type(given).__name__}")
    extra = given.keys() - set(pairs)
    if extra:
        names = ", ".join(f"({i + 1},{j + 1})" for i, j in sorted(extra))
        raise ShapeMismatch(
            f"{what} given for {names}, not an oriented pair")


def validate_module(m: HModule) -> None:
    """Check shapes and the defining relations (H1) and (H2) exactly."""
    read_module(m)
    for i in range(m.n):
        e = m.eps[i]
        if e.shape != (m.dims[i], m.dims[i]):
            raise ShapeMismatch(f"loop at vertex {i + 1} has shape {e.shape}")
        if la.matpow(e, m.loop_order(i), m.p).any():
            raise RelationH1Violated(i)
    for (i, j), mats in m.arrows.items():
        fij = m.datum.f(i, j)
        fji = m.datum.f(j, i)
        left = la.matpow(m.eps[i], fji, m.p)
        right = la.matpow(m.eps[j], fij, m.p)
        for g, a in enumerate(mats):
            if a.shape != (m.dims[i], m.dims[j]):
                raise ShapeMismatch(
                    f"arrow ({i + 1},{j + 1})#{g + 1} has shape {a.shape}")
            if ((left @ a - a @ right) % m.p).any():
                raise RelationH2Violated(i, j, g)


# --- local freeness ---------------------------------------------------------

def _not_free_rank(x: np.ndarray, jordan: int, order: int,
                   p: int) -> Optional[int]:
    """None when the nilpotent x makes its space free over
    F_p[x]/(x^order): order divides its dim d and rank(x) = d - d/order,
    which pins the Jordan type to free blocks; else rank(x).  jordan is
    `_jordan_order(x)`: the standard Jordan matrix of block size order
    (jordan == order) and an empty loop are free without an elimination."""
    d = x.shape[0]
    if not d or jordan == order:
        return None
    rk = la.rank(x, p)
    return rk if d % order or rk != d - d // order else None


def _not_free_at(m: HModule) -> Optional[str]:
    """The first vertex i at which m is not free (`_not_free_rank` of its
    loop at order k*c_i), named with its dim, loop order and loop rank;
    None when m is locally free."""
    for i in range(m.n):
        order = m.loop_order(i)
        rk = _not_free_rank(m.eps[i], m.jordan_orders[i], order, m.p)
        if rk is not None:
            return (f"vertex {i + 1} has dim {m.dims[i]}, loop order "
                    f"{order} and loop rank {rk}")
    return None


def is_locally_free(m: HModule) -> bool:
    return _not_free_at(read_module(m)) is None


def read_module(m, *others) -> HModule:
    """m, the one reader of module arguments: ValidationError unless m and
    each of others is an HModule, DatumMismatch unless the others live
    over the algebra of m (one datum, k and p)."""
    if not isinstance(m, HModule):
        raise ValidationError(
            f"expected a module (HModule), got {type(m).__name__}")
    for x in others:
        if (read_module(x).datum, x.k, x.p) != (m.datum, m.k, m.p):
            raise DatumMismatch("modules live over different algebras")
    return m


def rank_vector(m: HModule) -> RankVector:
    where = _not_free_at(read_module(m))
    if where is not None:
        raise NotLocallyFree(f"module is not locally free: {where}")
    return RankVector(m.dims[i] // m.loop_order(i) for i in range(m.n))


# --- free modules and standard form ----------------------------------------

def _standard_loop(order: int, r: int) -> np.ndarray:
    e = la.zeros(order * r, order * r)
    for s in range(r):
        for t in range(order - 1):
            e[s * order + t + 1, s * order + t] = 1
    return e


def free_module(datum: CartanDatum, k: int, p: int, r) -> HModule:
    """E^r, rank r_i free at each vertex with all arrows zero: the module of
    the zero structure, read and checked by `structure_from_arrays`."""
    return from_structure_matrices(structure_from_arrays(datum, k, p, r, {}))


def free_basis(nil: np.ndarray, order: int, p: int) -> np.ndarray:
    """Basis of a space that is free over F_p[x]/(x^order), x acting by
    the nilpotent `nil`: the generators are the coordinates off the pivots
    of its image, and column s*order + t is nil^t applied to generator s.

    Raises NotLocallyFree when these columns are not a basis.
    """
    dim = nil.shape[0]
    sweep = [la.identity(dim).take(la.image(nil, p).off_pivots, 1)]
    for _ in range(order - 1):
        sweep.append((nil @ sweep[-1]) % p)
    basis = np.stack(sweep, axis=2).reshape(dim, sweep[0].shape[1] * order)
    if basis.shape[1] != dim or la.rank(basis, p) != dim:
        raise NotLocallyFree("generator sweep is not a basis")
    return basis


def normalize(m: HModule) -> tuple[HModule, tuple[np.ndarray, ...]]:
    """Conjugate a locally free module into standard loop form.

    Returns (standard module, per-vertex change of basis T_i); columns of
    T_i are the new basis in old coordinates and new maps are
    T_i^{-1} X T_j.
    """
    if not is_locally_free(read_module(m)):
        raise NotLocallyFree("cannot normalize a non-free loop action")
    ts = [free_basis(m.eps[i], m.loop_order(i), m.p) for i in range(m.n)]
    tinv = [la.inv(t, m.p) for t in ts]
    eps = [((tinv[i] @ m.eps[i]) % m.p @ ts[i]) % m.p for i in range(m.n)]
    arrows = {key: tuple(((tinv[key[0]] @ a) % m.p @ ts[key[1]]) % m.p
                         for a in mats)
              for key, mats in m.arrows.items()}
    return make_module(m.datum, m.k, m.p, eps, arrows), tuple(ts)


def _standard(m: HModule) -> tuple[HModule, Optional[tuple[np.ndarray, ...]]]:
    """(m, None) for a module in standard form, else `normalize(m)`."""
    return (m, None) if m.standard_form else normalize(m)


def modules_equal(a: HModule, b: HModule) -> bool:
    """Literal equality of all matrices (not isomorphism): one (datum, k,
    p) and one `content` key."""
    read_module(a), read_module(b)
    return ((a.datum, a.k, a.p) == (b.datum, b.k, b.p)
            and a.content == b.content)


# --- structure matrices ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StructureMatrices:
    """Arrow data of a locally free module in loop-standard form.

    mats[(i, j)] has shape (r_i, |c_ij| * r_j, k*c_i): entry [s, col, :] is
    the coefficient list (ascending eps_i-degree) of the (s, col) entry over
    F_p[eps_i]/(eps_i^(k*c_i)).  Column layout: col = (u * g_ij + g) * f_ij + t
    for source generator u, arrow copy g, twist 0 <= t < f_ij.
    """

    datum: CartanDatum
    k: int
    p: int
    rank: RankVector
    mats: dict[tuple[int, int], np.ndarray]


def _structure_shapes(datum: CartanDatum, k: int, r: RankVector) -> dict:
    """Per oriented pair, the shape of its structure matrix."""
    if len(r) != read_datum(datum).n:
        raise ShapeMismatch(f"rank vector length {len(r)} != {datum.n}")
    k = read_int(k, "k", 1, KTooSmall)
    return {(i, j): (r[i], abs(datum.c[i][j]) * r[j], k * datum.d[i])
            for i, j in datum.oriented_pairs()}


def structure_parameter_count(datum: CartanDatum, k: int, r) -> int:
    """Number of free F_p entries: sum over (i,j) of k*c_i*|c_ij|*r_i*r_j."""
    shapes = _structure_shapes(datum, k, RankVector(r))
    return sum(math.prod(shape) for shape in shapes.values())


def structure_from_arrays(datum: CartanDatum, k: int, p: int, r,
                          mats) -> StructureMatrices:
    """The structure of rank r with the given ring matrices per oriented
    pair (zero for a pair left out), read mod p once p is checked."""
    la.check_prime(p)
    r = RankVector(r)
    shapes = _structure_shapes(datum, k, r)
    _check_pairs(mats, shapes, "structure matrix")
    out = {}
    for key, shape in shapes.items():
        m = la.integer_array(mats.get(key, np.zeros(shape, dtype=np.int64)))
        if m.shape != shape:
            if m.ndim == 2 and m.shape == shape[:2]:
                # constant entries given as scalars
                full = np.zeros(shape, dtype=np.int64)
                full[:, :, 0] = m
                m = full
            else:
                raise ShapeMismatch(
                    f"structure matrix for ({key[0] + 1},{key[1] + 1}) "
                    f"has shape {m.shape}, expected {shape}")
        out[key] = _frozen(m % p)
    return StructureMatrices(datum, k, p, r, out)


def ring_to_matrix(ring, mi: int, mj: int, fij: int = 1,
                   fji: int = 1) -> np.ndarray:
    """Generator-major matrices (..., r_i*mi, r_j*mj) of a stack of ring
    matrices (..., r_i, r_j*fij, mi).

    Entry [s, u*fij + t] is the coefficient list (ascending eps_i-degree)
    of the image of eps_j^t g_u; higher powers of eps_j follow the
    rewriting rule, eps_j^(a*fij + t) g_u going to eps_i^(a*fji) times the
    image of eps_j^t g_u.  With fij = fji = 1 the input is a matrix over
    F_p[eps]/(eps^m), an operator that commutes with the loop; with mi =
    mj = fij = 1 it is a matrix over F_p, and the result is a fresh copy of
    it.
    """
    ring = np.asarray(ring, dtype=np.int64)
    if mi == mj == fij == 1:
        return ring[..., 0].copy()
    lead = ring.shape[:-3]
    ri, rj = ring.shape[-3], ring.shape[-2] // fij
    n = len(lead)
    # (..., r_i, degree, r_j, twist)
    src = ring.reshape(lead + (ri, rj, fij, mi)).transpose(
        tuple(range(n)) + (n, n + 3, n + 1, n + 2))
    out = np.zeros(lead + (ri, mi, rj, mj), dtype=np.int64)
    for a, tau in enumerate(range(0, mj, fij)):
        shift = a * fji
        if shift >= mi:
            break
        width = min(fij, mj - tau)
        out[..., shift:, :, tau:tau + width] = src[..., :mi - shift, :, :width]
    return out.reshape(lead + (ri * mi, rj * mj))


def matrix_to_ring(mat, mi: int, mj: int, fij: int = 1) -> np.ndarray:
    """Ring matrices (..., r_i, r_j*fij, mi) read off the columns
    eps_j^t g_u (t < fij) of generator-major matrices (..., r_i*mi,
    r_j*mj); the inverse of ring_to_matrix on its image."""
    mat = np.asarray(mat, dtype=np.int64)
    lead = mat.shape[:-2]
    ri, rj = mat.shape[-2] // mi, mat.shape[-1] // mj
    n = len(lead)
    cols = mat.reshape(lead + (ri, mi, rj, mj))[..., :fij]
    return cols.transpose(tuple(range(n)) + (n, n + 2, n + 3, n + 1)
                          ).reshape(lead + (ri, rj * fij, mi))


def from_structure_matrices(s: StructureMatrices) -> HModule:
    """Expand structure matrices to explicit loop/arrow matrices.

    The loops come out in standard Jordan form; arrow columns at twisted
    source degrees are filled in through the rewriting rule, so (H2) holds
    by construction.  The result is locally free of rank s.rank; its
    integer lift is its entries, as for every module.  Raises
    ValidationError unless s is a StructureMatrices.
    """
    if not isinstance(s, StructureMatrices):
        raise ValidationError(f"expected StructureMatrices, got "
                              f"{type(s).__name__}")
    datum, k, p, r = s.datum, s.k, s.p, s.rank
    eps = [_standard_loop(k * datum.d[i], r[i]) for i in range(datum.n)]
    arrows = {}
    for (i, j), u_mat in s.mats.items():
        mi, mj = k * datum.d[i], k * datum.d[j]
        fij, gij = datum.f(i, j), datum.g(i, j)
        if u_mat.shape[2] != mi:
            raise EntryDegreeOverflow(
                f"entries for ({i + 1},{j + 1}) must be truncated at "
                f"degree {mi}")
        # column (u*g_ij + g)*f_ij + t of copy g -> ring column u*f_ij + t
        rings = u_mat.reshape(r[i], r[j], gij, fij, mi).transpose(
            2, 0, 1, 3, 4).reshape(gij, r[i], r[j] * fij, mi)
        arrows[(i, j)] = list(ring_to_matrix(rings, mi, mj, fij,
                                             datum.f(j, i)))
    return make_module(datum, k, p, eps, arrows)


def to_structure_matrices(m: HModule) -> StructureMatrices:
    """Inverse of from_structure_matrices on standard-form modules."""
    m, _ = _standard(read_module(m))
    r = rank_vector(m)
    out = {}
    for (i, j), mats in m.arrows.items():
        mi, mj = m.loop_order(i), m.loop_order(j)
        fij, gij = m.datum.f(i, j), m.datum.g(i, j)
        rings = matrix_to_ring(np.stack(mats), mi, mj, fij).reshape(
            gij, r[i], r[j], fij, mi)
        out[(i, j)] = _frozen(rings.transpose(1, 2, 0, 3, 4).reshape(
            r[i], r[j] * gij * fij, mi))
    return StructureMatrices(m.datum, m.k, m.p, r, out)


def random_structure(datum: CartanDatum, k: int, p: int, r,
                     seed) -> StructureMatrices:
    la.check_prime(p)
    rng = la.rng_from(seed)
    r = RankVector(r)
    mats = {key: rng.integers(0, p, size=shape)
            for key, shape in _structure_shapes(datum, k, r).items()}
    return structure_from_arrays(datum, k, p, r, mats)


def random_locally_free(datum: CartanDatum, k: int, p: int, r,
                        seed) -> HModule:
    """Uniform sample of the structure-matrix space, expanded to a module."""
    return from_structure_matrices(random_structure(datum, k, p, r, seed))


def iter_structure_matrices(datum: CartanDatum, k: int, p: int, r
                            ) -> Iterator[StructureMatrices]:
    """All points of the structure-matrix space, in lexicographic order:
    the digits of point c, least significant first, in sorted pair order."""
    la.check_prime(p)
    r = RankVector(r)
    shapes = _structure_shapes(datum, k, r)
    keys = sorted(shapes)
    sizes = (math.prod(shapes[key]) for key in keys)
    bounds = [0, *itertools.accumulate(sizes)]
    for block in la.digit_chunks(p, bounds[-1]):
        for row in block:
            yield structure_from_arrays(datum, k, p, r, {
                key: row[lo:hi].reshape(shapes[key])
                for key, lo, hi in zip(keys, bounds, bounds[1:])})


# points up to which find_rigid, parameter_estimate, is_schur_root and
# canonical_decomposition scan the whole space; read at each call
STRUCTURE_SPACE_BUDGET = 2 ** 22


def structure_space(datum: CartanDatum, k: int, p: int, r, samples: int,
                    seed) -> tuple[bool, Iterator[HModule]]:
    """(exhaustive, modules): a generator of the points of the space in
    iter_structure_matrices order if at most STRUCTURE_SPACE_BUDGET, else
    of the modules random_locally_free(..., (seed, t)) for t < samples."""
    samples = read_int(samples, "samples", 0)
    if (la.check_prime(p) ** structure_parameter_count(datum, k, r)
            > STRUCTURE_SPACE_BUDGET):
        return False, (random_locally_free(datum, k, p, r, (seed, t))
                       for t in range(samples))
    return True, (from_structure_matrices(s)
                  for s in iter_structure_matrices(datum, k, p, r))


# --- constructions -----------------------------------------------------------

def direct_sum(a: HModule, b: HModule) -> HModule:
    read_module(a, b)
    eps = [la.block_diag(a.eps[i], b.eps[i]) for i in range(a.n)]
    arrows = {}
    for key in a.arrows:
        arrows[key] = [la.block_diag(x, y)
                       for x, y in zip(a.arrows[key], b.arrows[key])]
    return make_module(a.datum, a.k, a.p, eps, arrows)


@dataclass(frozen=True, eq=False)
class Quotient:
    """A quotient module M/U with, per vertex, the subspace U_i it was cut
    along; the quotient coordinates are the coordinates off the pivots of
    U_i, and `U_i.quotient_coords` projects onto them."""

    module: HModule
    subspaces: tuple[la.Subspace, ...]

    def induced(self, source: "Quotient", f) -> tuple[np.ndarray, ...]:
        """Per vertex, the map source.module -> self.module induced by f_i
        from the module `source` quotients to the one this quotients: the
        quotient block of `_blocks`, whose invariance test checks that f_i
        maps the source subspace into this one."""
        try:
            return tuple(_blocks("f", fi, src, tgt)[1] for fi, src, tgt
                         in zip(f, source.subspaces, self.subspaces))
        except NotInvariant as exc:
            raise InternalCheckError("induced map not well defined") from exc


def _blocks(label: str, x: np.ndarray, u_j: la.Subspace, u_i: la.Subspace
            ) -> tuple:
    """The blocks of a map x: M_j -> M_i between subspaces U_j and U_i with
    RREF bases B_j, B_i, pivots P and coordinates O off the pivots, by one
    residue rule: q_i x = X[O_i] - B_i[:, O_i]^T X[P_i] is
    `Subspace.quotient_coords`, the projection q_i onto M_i / U_i applied
    to x.  On the subspaces the block is X[P_i] B_j^T, the rows
    P_i of x B_j^T; on the quotients it is
    q_i x s_j = X[O_i, O_j] - B_i[:, O_i]^T X[P_i, O_j] (s_j selects the
    columns O_j); both read-only.  Raises NotInvariant unless x maps U_j
    into U_i, that is unless q_i x B_j^T == 0."""
    p = u_i.p
    qx = u_i.quotient_coords(x)
    if ((qx @ u_j.basis.T) % p).any():
        raise NotInvariant(f"{label}: the subspace is not mapped into the "
                           f"target subspace")
    return (_frozen((x.take(u_i.pivots, 0) @ u_j.basis.T) % p),
            _frozen(qx.take(u_j.off_pivots, 1)))


def _split_blocks(m: HModule, subspaces, maps) -> tuple[tuple, list]:
    """The checked block pass of a split of m along per-vertex subspaces
    U_i: the subspaces, and the `_blocks` of each map (label, X, i, j) of
    `maps`, one list in the order of `maps`, so a reader pairs it with the
    maps by `zip`.  Raises ValidationError unless subspaces is a sequence
    of Subspace, ShapeMismatch for subspaces that do not fit m,
    NotInvariant at the first map that does not preserve them."""
    subs = read_value(tuple, subspaces, "bad subspaces")
    if len(subs) != m.n:
        raise ShapeMismatch(f"need {m.n} subspaces, got {len(subs)}")
    for i, u in enumerate(subs):
        if not isinstance(u, la.Subspace):
            raise ValidationError(f"not a Subspace at vertex {i + 1}")
        if u.ambient != m.dims[i] or u.p != m.p:
            raise ShapeMismatch(f"subspace at vertex {i + 1} mismatched")
    return subs, [_blocks(label, x, subs[j], subs[i])
                  for label, x, i, j in maps]


def _restrict(m: HModule, bases, pivots) -> HModule:
    """The restriction of m to per-vertex invariant subspaces U_i spanned
    by rows B_i = bases[i], the identity on the columns P_i = pivots[i]:
    each loop and arrow x: M_j -> M_i becomes the read-only
    X' = (x B_j^T)[P_i], the X' with x B_j^T = B_i^T X'.

    Valid by construction, so no `make_module`: with B_i^T X' = x B_j^T
    for every map and each B^T injective, every polynomial relation among
    the maps of m, (H1) and (H2) among them, holds among the X'.  The
    caller vouches for invariance: `sub_quotient` by its block pass, the
    flag recursion by its closure search (`flagvar._layer_chains`), and
    `gendecomp.krull_schmidt` for im phi^N and ker phi^N, invariant since
    phi has passed the substitution check of a homomorphism, so phi^N
    commutes with every loop and arrow."""
    p = m.p

    def block(x: np.ndarray, i: int, j: int) -> np.ndarray:
        return _frozen((x.take(pivots[i], 0) @ bases[j].T) % p)

    eps = tuple(block(x, i, i) for i, x in enumerate(m.eps))
    arrows = {key: tuple(block(a, *key) for a in mats)
              for key, mats in m.arrows.items()}
    return HModule(m.datum, m.k, p, tuple(b.shape[0] for b in bases), eps,
                   types.MappingProxyType(arrows))


def quotient(m: HModule, subspaces, k: Optional[int] = None) -> Quotient:
    """M/U along per-vertex invariant subspaces U_i: the quotient blocks of
    the block pass `_split_blocks` over `maps_with_labels()`, the loops
    first and then the arrows, which are grouped by pair here, validated by
    `make_module` at level k (by default the level of m).  Raises
    ShapeMismatch for subspaces that do not fit m, NotInvariant when some
    loop or arrow does not descend to the quotient."""
    maps = read_module(m).maps_with_labels()
    subs, blocks = _split_blocks(m, subspaces, maps)
    arrows = {key: [] for key in m.arrows}
    for (_, _, i, j), b in zip(maps[m.n:], blocks[m.n:]):
        arrows[(i, j)].append(b[1])
    mod = make_module(m.datum, m.k if k is None else k, m.p,
                      [b[1] for b in blocks[:m.n]], arrows)
    return Quotient(mod, subs)


@dataclass(frozen=True, eq=False)
class SubQuotient:
    sub: HModule
    quotient: Quotient


def sub_quotient(m: HModule, subspaces) -> SubQuotient:
    """Restrict and quotient along per-vertex invariant subspaces: the
    `quotient` first, whose block pass raises ShapeMismatch and
    NotInvariant as it does, then the submodule in the coordinates of the
    RREF bases by `_restrict`."""
    q = quotient(m, subspaces)
    return SubQuotient(_restrict(m, [u.basis for u in q.subspaces],
                                 [u.pivots for u in q.subspaces]), q)


# --- the central nilpotent and reduction mod other primes -------------------

def epsilon_blocks(m: HModule, a: int = 1) -> tuple[np.ndarray, ...]:
    """Per-vertex action of eps^a, the a-th power of the central nilpotent
    eps = sum_i eps_i^(c_i): Eps_i ** (a*c_i), one `matpow` per vertex.

    The block-diagonal of these commutes with every structure map and
    vanishes for a >= k; a is read by `read_int`.
    """
    a = read_int(a, "eps power", 0)
    return tuple(la.matpow(x, a * c, m.p)
                 for x, c in zip(read_module(m).eps, m.datum.d))


def reduce_mod_p(m: HModule, p_new: int) -> HModule:
    """The module over F_{p_new} whose matrices are m's entries, read as
    integers in 0..p-1 (m's integer lift) and reduced mod p_new, validated
    again.  Raises RelationBrokenAtPrime when they break (H1) or (H2) mod
    p_new."""
    la.check_prime(p_new)
    read_module(m)
    try:
        return make_module(m.datum, m.k, p_new, m.eps, m.arrows)
    except ValidationError as exc:
        raise RelationBrokenAtPrime(
            f"integer lift violates relations mod {p_new}: {exc}") from exc


# --- serialization ------------------------------------------------------------

MODULE_FORMAT_VERSION = 1


def module_to_dict(m: HModule) -> dict:
    """The module file of m: rank with structure when its loops are in
    standard form, else dims with eps and arrows."""
    out = {"format_version": MODULE_FORMAT_VERSION, "k": read_module(m).k,
           "p": m.p}
    if m.standard_form:
        s = to_structure_matrices(m)
        out["rank"] = list(s.rank)
        out["structure"] = {
            f"{i + 1},{j + 1}": s.mats[(i, j)].tolist()
            for (i, j) in sorted(s.mats)}
    else:
        out["dims"] = list(m.dims)
        out["eps"] = [e.tolist() for e in m.eps]
        out["arrows"] = {f"{i + 1},{j + 1}": [a.tolist() for a in mats]
                         for (i, j), mats in sorted(m.arrows.items())}
    return out


def _pair_key(key: str) -> tuple[int, int]:
    i, j = (int(x) - 1 for x in key.split(","))
    return i, j


def _pair_dict(value, what: str, convert) -> dict:
    """{(i, j): convert(entry)} of a file mapping 'i,j' keys (1-based)."""
    if not isinstance(value, dict):
        raise ValidationError(f"module file: {what} must map 'i,j' keys")
    return {read_value(_pair_key, key, f"module file: bad {what} key {key!r}"):
            read_value(convert, entry,
                       f"module file: bad {what} entry {key!r}")
            for key, entry in value.items()}


def module_from_dict(datum: CartanDatum, data: dict) -> HModule:
    """Read a module file: k, p and either rank with structure, or dims
    with eps (and arrows).  Malformed data raises ValidationError
    (ShapeMismatch for lengths and shapes)."""
    if not isinstance(data, dict):
        raise ValidationError("module file must hold a JSON object")
    version = data.get("format_version", MODULE_FORMAT_VERSION)
    if version != MODULE_FORMAT_VERSION:
        raise ValidationError(f"unsupported module format {version}")
    form = ("rank", "structure") if "structure" in data else ("dims", "eps")
    missing = [key for key in ("k", "p") + form if key not in data]
    if missing:
        raise ValidationError(
            f"module file lacks {', '.join(missing)}: it needs k, p and "
            f"either rank with structure or dims with eps")
    k, p = data["k"], data["p"]        # read where the module is built
    if "structure" in data:
        mats = _pair_dict(data["structure"], "structure", la.integer_array)
        return from_structure_matrices(
            structure_from_arrays(datum, k, p, data["rank"], mats))
    dims = read_value(integers, data["dims"], "module file: bad dims")
    eps = read_value(lambda v: [la.integer_array(e) for e in v], data["eps"],
                     "module file: bad eps")
    if len(dims) != read_datum(datum).n or len(eps) != datum.n:
        raise ShapeMismatch(
            f"dims and eps need {datum.n} entries, got {len(dims)} and "
            f"{len(eps)}")
    for i, (e, d) in enumerate(zip(eps, dims)):
        if d < 0 or e.size != d * d:
            raise ShapeMismatch(
                f"loop at vertex {i + 1} has {e.size} entries for dim {d}")
    arrows = _pair_dict(data.get("arrows", {}), "arrows",
                        lambda mats: [la.integer_array(a) for a in mats])
    return make_module(datum, k, p, [e.reshape(d, d)
                                     for e, d in zip(eps, dims)], arrows)
