import collections

import numpy as np
import pytest

from cartanquiver import cartan, gendecomp, hmod, homext
from cartanquiver import exactlinalg as la
from cartanquiver.cartan import RankVector, euler_form
from cartanquiver.errors import ShapeMismatch, ValidationError


def make_datum(c, d, omega):
    return cartan.validate_orientation(cartan.validate_cartan(c, d), omega)


@pytest.fixture(scope="session")
def a2():
    """Minimal symmetrizer on the two-vertex single-edge matrix."""
    return make_datum([[2, -1], [-1, 2]], [1, 1], [(0, 1)])


@pytest.fixture(scope="session")
def b2():
    """Non-trivial minimal symmetrizer diag(2, 1)."""
    return make_datum([[2, -1], [-2, 2]], [2, 1], [(0, 1)])


@pytest.fixture(scope="session")
def kronecker():
    """Symmetric matrix with a double edge: two parallel arrows."""
    return make_datum([[2, -2], [-2, 2]], [1, 1], [(0, 1)])


@pytest.fixture(scope="session")
def b2_rev():
    """The (2,1)-symmetrizer edge oriented the other way: the oriented
    pair has twist degree f = 2, so structure entries carry real twists."""
    return make_datum([[2, -1], [-2, 2]], [2, 1], [(1, 0)])


@pytest.fixture(scope="session")
def g2():
    """Triple edge with symmetrizer diag(1, 3): twist degree 3."""
    return make_datum([[2, -3], [-1, 2]], [1, 3], [(0, 1)])


@pytest.fixture(scope="session")
def no_arrows():
    """Two isolated vertices (no off-diagonal entries)."""
    return cartan.validate_orientation(
        cartan.validate_cartan([[2, 0], [0, 2]], [1, 1]), [])


@pytest.fixture(scope="session")
def one_vertex():
    """A single vertex: modules are truncated-polynomial columns."""
    return cartan.validate_orientation(
        cartan.validate_cartan([[2]], [1]), [])


@pytest.fixture(scope="session")
def a3():
    """Linear three-vertex A-type datum."""
    c = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    return make_datum(c, [1, 1, 1], [(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def b3():
    """Three-vertex chain with the mixed symmetrizer diag(2, 2, 1)."""
    c = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    return make_datum(c, [2, 2, 1], [(0, 1), (1, 2)])


def golden_module(datum, k, p):
    """Rank (1, 1) module whose arrow acts by the loop: the standard
    example of a non-zero map dying under reduction (k = 2)."""
    coeffs = np.zeros((1, 1, k), dtype=np.int64)
    if k >= 2:
        coeffs[0, 0, 1] = 1
    else:
        coeffs[0, 0, 0] = 0
    s = hmod.structure_from_arrays(datum, k, p, (1, 1), {(0, 1): coeffs})
    return hmod.from_structure_matrices(s)


def n_module(datum, k, p):
    """Rank (2, 2) module with structure matrix [[0, 1], [0, 0]]: splits
    into three pairwise non-isomorphic indecomposables and is not rigid."""
    s = hmod.structure_from_arrays(datum, k, p, (2, 2),
                                   {(0, 1): np.array([[0, 1], [0, 0]])})
    return hmod.from_structure_matrices(s)


def line_submodule(module, vertex, a_coeffs):
    """span((1, a)) inside a free rank-2 column at the vertex; a is given
    by its coefficient list."""
    order = module.loop_order(vertex)
    assert module.standard_form and module.dims[vertex] == 2 * order
    ring = np.zeros((2, 1, order), dtype=np.int64)
    ring[0, 0, 0] = 1
    a_coeffs = list(a_coeffs)
    ring[1, 0, :len(a_coeffs)] = a_coeffs
    columns = hmod.ring_to_matrix(ring % module.p, order, order)
    return la.Subspace.from_rows(columns.T, 2 * order, module.p)


# A2 module files (k = 2, p = 5) that are malformed in one way each
MALFORMED_MODULE_FILES = [
    ({"k": 2, "p": 5, "rank": [1, 1], "structure": {"1;2": [[[0, 1]]]}},
     ValidationError),
    ({"k": 2, "p": 5, "rank": [1, 1], "structure": {"1,2": [[["x", 1]]]}},
     ValidationError),
    ({"k": 2, "p": 5, "rank": [1, 1]}, ValidationError),
    ({"k": 2, "p": 5, "dims": [2, 2], "eps": [[[0, 0], [1, 0]]]},
     ShapeMismatch),
    ({"k": 2, "p": 5, "rank": [1], "structure": {}}, ShapeMismatch),
    ({"k": 2, "p": 5, "dims": [1, 1], "eps": [[0], [0]], "arrows": [[1]]},
     ValidationError),
]


SMALL_RANKS = [(0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2),
               (3, 0), (0, 3)]


def reference_intertwiner_rows(m, n, offsets, total):
    """The relation blocks with dense unknowns (offsets[i] is the start of
    the row-major entries of f_i), assembled with np.kron against
    identities."""
    rows = []
    for _, x, y, i, j in homext._relations(m, n):
        height = n.dims[i] * m.dims[j]
        if height == 0:
            continue
        block = np.zeros((height, total), dtype=np.int64)
        ui = n.dims[i] * m.dims[i]
        if ui:
            block[:, offsets[i]:offsets[i] + ui] = np.kron(
                la.identity(n.dims[i]), x.T)
        uj = n.dims[j] * m.dims[j]
        if uj:
            block[:, offsets[j]:offsets[j] + uj] -= np.kron(
                y, la.identity(m.dims[j]))
        rows.append(block % m.p)
    return rows


def dense_hom_reference(m, n):
    """The Hom kernel over dense unknowns, every entry of every f_v:
    (vec_basis, support) as la.kernel_basis_and_support returns them."""
    offsets = [0]
    for dm, dn in zip(m.dims, n.dims):
        offsets.append(offsets[-1] + dn * dm)
    total = offsets.pop()
    if total == 0:
        return la.zeros(0, 0), ()
    rows = reference_intertwiner_rows(m, n, offsets, total)
    system = np.concatenate(rows, axis=0) if rows else la.zeros(0, total)
    return la.kernel_basis_and_support(system, m.p)


def assert_matches_dense(basis, m, n):
    """The Hom basis is byte-for-byte the one of the dense solve."""
    want, support = dense_hom_reference(m, n)
    assert basis.vec_basis.dtype == want.dtype
    assert basis.vec_basis.shape == want.shape
    assert np.array_equal(basis.vec_basis, want)
    assert basis.support == support
    assert all(type(c) is int for c in basis.support)


# --- the structure-space scans as each function wrote its own ---------------

def reference_iter_structure_matrices(datum, k, p, r):
    """All points of the structure-matrix space, in lexicographic order,
    by a Python divmod loop over each code."""
    r = RankVector(r)
    shapes = hmod._structure_shapes(datum, k, r)
    keys = sorted(shapes)
    sizes = [int(np.prod(shapes[key])) for key in keys]
    for code in range(p ** sum(sizes)):
        mats = {}
        rest = code
        for key, size in zip(keys, sizes):
            digits = np.zeros(size, dtype=np.int64)
            for t in range(size):
                rest, digit = divmod(rest, p)
                digits[t] = digit
            mats[key] = digits.reshape(shapes[key])
        yield hmod.structure_from_arrays(datum, k, p, r, mats)


def reference_structure_space(datum, k, p, r, budget, samples, seed):
    """(exhaustive, modules) as a list: every point when p^params is within
    the budget, else random_locally_free(..., (seed, t)) for t < samples."""
    if p ** hmod.structure_parameter_count(datum, k, r) <= budget:
        return True, [hmod.from_structure_matrices(s) for s in
                      reference_iter_structure_matrices(datum, k, p, r)]
    return False, [hmod.random_locally_free(datum, k, p, r, (seed, t))
                   for t in range(samples)]


def reference_find_rigid(datum, k, p, r, trials, seed, budget):
    """(module, trials_used, exhaustive, none_exists): the trials, then the
    full scan when within budget."""
    for t in range(trials):
        mod = hmod.random_locally_free(datum, k, p, r, seed=(seed, t))
        if homext.is_rigid(mod):
            return mod, t + 1, False, False
    n_params = hmod.structure_parameter_count(datum, k, r)
    if p ** n_params <= budget:
        for count, s in enumerate(
                reference_iter_structure_matrices(datum, k, p, r)):
            mod = hmod.from_structure_matrices(s)
            if homext.is_rigid(mod):
                return mod, trials + count + 1, True, False
        return None, trials + p ** n_params, True, True
    return None, trials, False, False


def reference_parameter_estimate(datum, k, p, r, samples, seed, budget):
    """(value, min_end_dim, quadratic_form, samples, exhaustive)."""
    q = euler_form(datum, r, r, k=k)
    exhaustive, mods = reference_structure_space(datum, k, p, r, budget,
                                                 samples, seed)
    best = min(homext.hom_space(m, m).dim for m in mods)
    return best - q, best, q, len(mods), exhaustive


def reference_ext_generic(datum, k, p, r, s, samples, seed, pair_budget):
    """Minimum Ext^1 over all pairs (the s-space rebuilt for every module
    of the r-space) or over the seeded sample pairs; stops at zero."""
    total = (hmod.structure_parameter_count(datum, k, r)
             + hmod.structure_parameter_count(datum, k, s))
    best = None
    if p ** total <= pair_budget:
        for sm in reference_iter_structure_matrices(datum, k, p, r):
            mod_m = hmod.from_structure_matrices(sm)
            for sn in reference_iter_structure_matrices(datum, k, p, s):
                val = homext.ext1_dim(mod_m, hmod.from_structure_matrices(sn))
                best = val if best is None else min(best, val)
                if best == 0:
                    return 0
        return best
    for t in range(samples):
        val = homext.ext1_dim(
            hmod.random_locally_free(datum, k, p, r, (seed, "m", t)),
            hmod.random_locally_free(datum, k, p, s, (seed, "n", t)))
        best = val if best is None else min(best, val)
        if best == 0:
            return 0
    return best


def reference_schur_scan(datum, k, p, r, samples, seed, budget):
    """(hits, count, exhaustive, certainty) of the indecomposability scan
    of is_schur_root."""
    n_params = hmod.structure_parameter_count(datum, k, r)
    certainty = gendecomp.EXHAUSTIVE
    hits = 0
    count = 0
    exhaustive = p ** n_params <= budget
    if exhaustive:
        for s in reference_iter_structure_matrices(datum, k, p, r):
            res = gendecomp.is_indecomposable(
                hmod.from_structure_matrices(s), seed=(seed, count))
            if res.certainty == gendecomp.MONTE_CARLO:
                certainty = gendecomp.MONTE_CARLO
            hits += bool(res)
            count += 1
    else:
        count = samples
        for t in range(samples):
            res = gendecomp.is_indecomposable(
                hmod.random_locally_free(datum, k, p, r, (seed, t)),
                seed=(seed, "ind", t))
            if res.certainty == gendecomp.MONTE_CARLO:
                certainty = gendecomp.MONTE_CARLO
            hits += bool(res)
    return hits, count, exhaustive, certainty


def reference_decomposition_scan(datum, k, p, r, samples, seed, budget):
    """(counter of rank multisets, count, exhaustive, certainty) of the
    Krull-Schmidt scan of canonical_decomposition."""
    n_params = hmod.structure_parameter_count(datum, k, r)
    counter = collections.Counter()
    certainty = gendecomp.EXHAUSTIVE
    exhaustive = p ** n_params <= budget
    if exhaustive:
        count = 0
        for s in reference_iter_structure_matrices(datum, k, p, r):
            ks = gendecomp.krull_schmidt(hmod.from_structure_matrices(s),
                                         seed=(seed, count), verify=False)
            if ks.certainty == gendecomp.MONTE_CARLO:
                certainty = gendecomp.MONTE_CARLO
            counter[ks.rank_multiset()] += 1
            count += 1
    else:
        count = samples
        for t in range(samples):
            ks = gendecomp.krull_schmidt(
                hmod.random_locally_free(datum, k, p, r, (seed, t)),
                seed=(seed, "ks", t), verify=False)
            if ks.certainty == gendecomp.MONTE_CARLO:
                certainty = gendecomp.MONTE_CARLO
            counter[ks.rank_multiset()] += 1
    return counter, count, exhaustive, certainty
