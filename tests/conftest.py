import collections

import numpy as np
import pytest

from cartanquiver import cartan, flagvar, gendecomp, hmod, homext, reduction
from cartanquiver import exactlinalg as la
from cartanquiver.cartan import RankVector, euler_form
from cartanquiver.errors import (
    DimensionMismatch,
    FlagNotInReduction,
    InternalCheckError,
    KTooSmall,
    LengthMismatch,
    NotInvariant,
    NotLocallyFree,
    ShapeMismatch,
    ValidationError,
)

from reference_linalg import (
    left_product_matrix,
    quotient_map,
    right_product_matrix,
)


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


def _conjugate(m, ts):
    """m in the basis whose vectors at vertex i are the columns of ts[i]."""
    p = m.p
    tinv = [la.inv(t, p) if t.size else t for t in ts]
    eps = [(tinv[i] @ m.eps[i] % p @ ts[i]) % p for i in range(m.n)]
    arrows = {key: [(tinv[key[0]] @ a % p @ ts[key[1]]) % p for a in mats]
              for key, mats in m.arrows.items()}
    return hmod.make_module(m.datum, m.k, p, eps, arrows)


def scrambled(m, rng):
    """m conjugated by a random change of basis at every vertex."""
    ts = []
    for d in m.dims:
        while True:
            t = rng.integers(0, m.p, size=(d, d))
            if la.rank(t, m.p) == d:
                ts.append(t)
                break
    return _conjugate(m, ts)


def unitriangular_conjugate(m, vertices, rng):
    """m with the basis at the given vertices changed by a random product
    of lower and upper unitriangular matrices."""
    ts = []
    for i, d in enumerate(m.dims):
        t = la.identity(d)
        if i in vertices:
            low = np.tril(rng.integers(0, m.p, size=(d, d)), -1) + t
            up = np.triu(rng.integers(0, m.p, size=(d, d)), 1) + t
            t = (low @ up) % m.p
        ts.append(t)
    return _conjugate(m, ts)


def dims_eps_file(m):
    """The dims/eps module file of m, whatever the form of its loops."""
    return {"k": m.k, "p": m.p, "dims": list(m.dims),
            "eps": [e.tolist() for e in m.eps],
            "arrows": {f"{i + 1},{j + 1}": [a.tolist() for a in mats]
                       for (i, j), mats in m.arrows.items()}}


RANKS = {"a2": (2, 1), "b2": (1, 2), "kronecker": (1, 1), "a3": (1, 2, 1)}


@pytest.fixture(scope="session")
def modules(a2, b2, kronecker, a3):
    """Random locally free A2, B2, Kronecker and A3 modules at k = 1, 2, 3
    over F_2 and F_3, in standard form and scrambled."""
    data = {"a2": a2, "b2": b2, "kronecker": kronecker, "a3": a3}
    out = []
    for name, datum in data.items():
        for k in (1, 2, 3):
            for p in (2, 3):
                m = hmod.random_locally_free(datum, k, p, RANKS[name],
                                             seed=(61, name, k, p))
                rng = np.random.default_rng(len(out))
                out += [m, scrambled(m, rng)]
    assert {m.standard_form for m in out} == {True, False}
    return out


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


def reference_fitting_search(m, candidates, shifts):
    """gendecomp._fitting_search as a loop over candidates and shifts: the
    Fitting power of each f - lam at each vertex on its own, its ranks, and
    the (im, ker) subspaces of the first shift whose image is proper."""
    p = m.p
    total = m.total_dim()
    for f in candidates:
        for lam in shifts:
            powers = [la.matpow((fi - lam * la.identity(d)) % p,
                                max(total, 1), p)
                      for fi, d in zip(f, m.dims)]
            im_dim = sum(la.rank(x, p) for x in powers)
            if im_dim == 0 or im_dim == total:
                continue
            ims = tuple(la.Subspace.from_rows(x.T, d, p)
                        for x, d in zip(powers, m.dims))
            kers = tuple(la.Subspace.from_rows(
                la.kernel_basis_matrix(x, p), d, p)
                for x, d in zip(powers, m.dims))
            return ims, kers
    return None


def reference_not_free_at(m):
    """hmod._not_free_at with an elimination at every vertex."""
    for i in range(m.n):
        order, d = m.loop_order(i), m.dims[i]
        rk = la.rank(m.eps[i], m.p)
        if d % order or rk != d - d // order:
            return (f"vertex {i + 1} has dim {d}, loop order {order} and "
                    f"loop rank {rk}")
    return None


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
                                         seed=(seed, count))
            if ks.certainty == gendecomp.MONTE_CARLO:
                certainty = gendecomp.MONTE_CARLO
            counter[ks.rank_multiset()] += 1
            count += 1
    else:
        count = samples
        for t in range(samples):
            ks = gendecomp.krull_schmidt(
                hmod.random_locally_free(datum, k, p, r, (seed, t)),
                seed=(seed, "ks", t))
            if ks.certainty == gendecomp.MONTE_CARLO:
                certainty = gendecomp.MONTE_CARLO
            counter[ks.rank_multiset()] += 1
    return counter, count, exhaustive, certainty


# --- the fiber constructions as flagvar wrote them by hand --------------------

def reference_total_blocks(mods):
    """Offsets of the (slot, vertex) blocks in the direct sum."""
    offsets = {}
    pos = 0
    for t, mod in enumerate(mods):
        for i in range(mod.n):
            offsets[(t, i)] = pos
            pos += mod.dims[i]
    return offsets, pos


def reference_rmul(a, b, p):
    """Product of ring matrices (..., rows, cols, k), one pair of degrees at
    a time."""
    k = a.shape[-1]
    lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    out = np.zeros(lead + (a.shape[-3], b.shape[-2], k), dtype=np.int64)
    for ta in range(k):
        for tb in range(k - ta):
            out[..., ta + tb] += a[..., ta] @ b[..., tb]
    return out % p


def reference_rid(n, k):
    """The identity ring matrix (n, n, k)."""
    out = np.zeros((n, n, k), dtype=np.int64)
    out[:, :, 0] = np.eye(n, dtype=np.int64)
    return out


def reference_rinv(a, p):
    """Inverse of a ring matrix (n, n, k), degree by degree from the inverse
    of its constant term."""
    k = a.shape[-1]
    n = a.shape[0]
    out = np.zeros_like(a)
    inv0 = la.inv(a[:, :, 0], p)
    out[:, :, 0] = inv0
    for t in range(1, k):
        acc = np.zeros((n, n), dtype=np.int64)
        for s in range(1, t + 1):
            acc += a[:, :, s] @ out[:, :, t - s]
        out[:, :, t] = (-inv0 @ acc) % p
    return out


def reference_generators(m, slots, offsets, total):
    """The generators of the repetitive chain action, one matrix each."""
    def blk(t, i):
        return slice(offsets[(t, i)], offsets[(t, i)] + m.dims[i])

    gens = []
    for t in range(slots):
        out = la.zeros(total, total)
        for i in range(m.n):
            out[blk(t, i), blk(t, i)] = la.identity(m.dims[i])
        gens.append(out)
    for mats in ([la.identity(d) for d in m.dims], m.eps):
        for i in range(m.n):
            out = la.zeros(total, total)
            for t in range(slots):
                out[blk(t, i), blk(t, i)] = mats[i]
            gens.append(out)
    for key in sorted(m.arrows):
        for a in m.arrows[key]:
            out = la.zeros(total, total)
            for t in range(slots):
                out[blk(t, key[0]), blk(t, key[1])] = a
            gens.append(out)
    for t in range(slots - 1):
        out = la.zeros(total, total)
        for i in range(m.n):
            out[blk(t + 1, i), blk(t, i)] = la.identity(m.dims[i])
        gens.append(out)
    return gens


# --- subspace containment and coordinates, as Subspace methods were ---------

def contains(u, v):
    """Whether the subspace u contains the subspace v."""
    if v.dim == 0:
        return True
    return u.contains_rows(v.basis)


def coordinates_rows(u, vectors):
    """Coefficients of row vectors in the RREF basis of u; the vectors must
    lie in u."""
    v = np.atleast_2d(np.asarray(vectors, dtype=np.int64)) % u.p
    if not u.contains_rows(v):
        raise DimensionMismatch("vector not in subspace")
    if u.dim == 0:
        return la.zeros(v.shape[0], 0)
    return v[:, list(u.pivots)]


# --- sub and quotient modules, one construction each ---------------------------

def reference_submodule(m, subspaces):
    """hmod.submodule as it was before the split: invariance by residues
    against the RREF bases, then coordinates at the pivots.  Returns the
    submodule and, per vertex, the basis of U_i as the columns of a
    matrix."""
    subs = list(subspaces)
    if len(subs) != m.n:
        raise ShapeMismatch(f"need {m.n} subspaces, got {len(subs)}")
    for i, u in enumerate(subs):
        if u.ambient != m.dims[i] or u.p != m.p:
            raise ShapeMismatch(f"subspace at vertex {i + 1} mismatched")
    for label, mat, i, j in m.maps_with_labels():
        if not subs[i].contains_rows((mat @ subs[j].basis.T).T):
            raise NotInvariant(f"{label} does not preserve the subspace")
    bases = tuple(u.basis.T for u in subs)

    def restrict(mat, i, j):
        img = (mat @ bases[j]) % m.p
        return coordinates_rows(subs[i], img.T).T

    eps = [restrict(m.eps[i], i, i) for i in range(m.n)]
    arrows = {key: [restrict(a, *key) for a in mats]
              for key, mats in m.arrows.items()}
    return hmod.make_module(m.datum, m.k, m.p, eps, arrows), bases


def reference_quotient(m, subspaces, k=None):
    """hmod.quotient as it was before the split: per map, the descend check
    q_i X B_j^T == 0, then q_i X s_j."""
    subs = list(subspaces)
    if len(subs) != m.n:
        raise ShapeMismatch(f"need {m.n} subspaces, got {len(subs)}")
    qmaps = [quotient_map(m.dims[i], subs[i]) for i in range(m.n)]

    def descend(mat, i, j):
        head = (qmaps[i][0] @ mat) % m.p
        if ((head @ subs[j].basis.T) % m.p).any():
            raise NotInvariant("a map does not descend to the quotient")
        return (head @ qmaps[j][1]) % m.p

    eps = [descend(m.eps[i], i, i) for i in range(m.n)]
    arrows = {key: [descend(a, *key) for a in mats]
              for key, mats in m.arrows.items()}
    mod = hmod.make_module(m.datum, m.k if k is None else k, m.p, eps,
                           arrows)
    return hmod.Quotient(mod, tuple(subs))


def reference_induced(target, source, f):
    """Quotient.induced as it was before the quotient kept its subspaces:
    per vertex proj_i @ f_i @ sect_i of the quotient maps, checked to
    vanish on the source kernel."""
    p = target.module.p
    out = []
    for tgt, fi, src in zip(target.subspaces, f, source.subspaces):
        proj, _ = quotient_map(tgt.ambient, tgt)
        src_proj, src_sect = quotient_map(src.ambient, src)
        head = (proj @ fi) % p
        fbar = (head @ src_sect) % p
        if ((fbar @ src_proj - head) % p).any():
            raise InternalCheckError("induced map not well defined")
        out.append(fbar)
    return tuple(out)


def reference_sub_quotient(m, subspaces):
    """(submodule, bases, quotient) by the two constructions above, the
    submodule first."""
    sub, bases = reference_submodule(m, subspaces)
    return sub, bases, reference_quotient(m, subspaces)


def reference_flag_tensor_modules(m, flag):
    """The connector assembly before the split: the inclusions from the
    coordinates of each layer's basis in the next layer, the projections
    induced by the identity between the quotients."""
    sqs = [reference_sub_quotient(m, layer) for layer in flag.layers]
    incl = tuple(
        tuple(coordinates_rows(flag.layers[t + 1][i], sqs[t][1][i].T).T
              for i in range(m.n))
        for t in range(len(sqs) - 1))
    ident = homext.identity_hom(m)
    proj = tuple(reference_induced(sqs[t + 1][2], sqs[t][2], ident)
                 for t in range(len(sqs) - 1))
    return (flagvar.TensorModule(tuple(sq[0] for sq in sqs), incl),
            flagvar.TensorModule(tuple(sq[2].module for sq in sqs), proj))


def reference_mod_epsilon_tensor(x):
    """The level-1 shadow of a tensor module: each slot modulo the image of
    the central nilpotent, with the induced connectors."""
    quots = [hmod.quotient(slot, [la.image(b, slot.p)
                                  for b in hmod.epsilon_blocks(slot)], 1)
             for slot in x.slots]
    connectors = tuple(reference_induced(quots[t + 1], quots[t], mu)
                       for t, mu in enumerate(x.connectors))
    return flagvar.TensorModule(tuple(q.module for q in quots), connectors)


def reference_fiber_expected_dimension(mbar, base):
    """dim Hom over the base-level tensor algebra between the mod-eps
    reductions of the chain and of its quotient chain."""
    if len(base.brseq) < 2:
        return 0
    x, y = reference_flag_tensor_modules(mbar, base)
    return flagvar.hom_tensor(reference_mod_epsilon_tensor(x),
                              reference_mod_epsilon_tensor(y)).dim


# --- the flag check as FlagOfSubmodules._check wrote it by hand -------------

def reference_flag_check(flag):
    """FlagOfSubmodules._check before the one flag check: per layer and
    vertex the ambient, the dimension, loop closure, freeness and nesting
    by residues and coordinates, then closure under every arrow."""
    m = flag.module
    if any(len(r) != m.n for r in flag.brseq):
        raise LengthMismatch(f"brseq needs rank vectors of length {m.n}")
    if len(flag.layers) != len(flag.brseq) - 1:
        raise ShapeMismatch("layer count does not match brseq length")
    if tuple(sum(r[i] for r in flag.brseq) * m.loop_order(i)
             for i in range(m.n)) != m.dims:
        raise ShapeMismatch("brseq does not sum to the ambient rank")
    acc = RankVector.zero(m.n)
    partial = []
    for r in flag.brseq[:-1]:
        acc = acc + r
        partial.append(acc)
    prev = None
    for t, layer in enumerate(flag.layers):
        for i in range(m.n):
            u = layer[i]
            order = m.loop_order(i)
            if u.ambient != m.dims[i]:
                raise ShapeMismatch("layer in wrong ambient space")
            if u.dim != order * partial[t][i]:
                raise ShapeMismatch(
                    f"layer {t + 1} has wrong dimension at vertex {i + 1}")
            restricted = (m.eps[i] @ u.basis.T).T
            if not u.contains_rows(restricted):
                raise ValidationError("layer not closed under a loop")
            sub_rank = la.rank(coordinates_rows(u, restricted % m.p), m.p)
            if order > 1 and sub_rank != u.dim - u.dim // order:
                raise NotLocallyFree(
                    f"layer {t + 1} not free at vertex {i + 1}")
            if prev is not None and not contains(u, prev[i]):
                raise ValidationError("layers are not nested")
        for (i, j), mats in m.arrows.items():
            for a in mats:
                image = (a @ layer[j].basis.T).T
                if not layer[i].contains_rows(image):
                    raise ValidationError("layer not closed under arrow")
        prev = layer


# --- the flag recursion by validated submodules -------------------------------

def _image(layer, maps):
    """The images T_i U_i of subspaces U_i under per-vertex maps T_i."""
    return tuple(la.Subspace.from_rows((u.basis @ t.T) % u.p, t.shape[0],
                                       u.p)
                 for u, t in zip(layer, maps))


def reference_layer_chains(m, seq, count):
    """flagvar._layer_chains before the chart basis: the top proper layer
    runs over the Grassmannian of m (normalized when m is not in standard
    form), and the rest recurses inside `reference_submodule(m, top)`,
    validated and normalized again, in the RREF basis of the top layer.
    Yields each flag's layers bottom first, as tuples of subspaces of m,
    or with count=True numbers of flags that sum to the total."""
    seq = tuple(map(RankVector, seq))
    if len(seq) == 1:
        yield 1 if count else []
        return
    top_rank = sum(seq[1:-1], seq[0])
    if len(seq) == 2 and count:
        yield flagvar.count_locally_free_submodules(m, top_rank)
        return
    for tup in flagvar.iter_locally_free_submodules(m, top_rank):
        if len(seq) == 2:
            yield [tup]
            continue
        inner, _ = reference_submodule(m, tup)
        incl = [u.basis.T for u in tup]
        for chain in reference_layer_chains(inner, seq[:-1], count):
            if count:
                yield chain
                continue
            yield [_image(layer, incl) for layer in chain] + [tup]


# --- the reduction fiber as a ring chart, computed again on every call -------

class CentralCoordinates:
    """Coordinates of a space that is free over F_p[eps]/(eps^k), given the
    nilpotent matrix of eps; converts vectors and eps-commuting operators to
    ring form and back."""

    def __init__(self, eps_total, k, p):
        self.k = k
        self.p = p
        self.dim = eps_total.shape[0]
        self.m = self.dim // k
        # column s*k + t is eps^t applied to generator s
        self.basis = hmod.free_basis(eps_total, k, p)
        self.basis_inv = la.inv(self.basis, p)

    def operator_to_ring(self, ops):
        """Ring matrices (..., m, m, k) of a stack of operators (..., dim,
        dim) commuting with eps: entry [s', s, tau] is the eps^tau
        coefficient of generator s' in the image of generator s.  Every
        operator is rebuilt from its ring matrix and compared."""
        p, k = self.p, self.k
        conj = ((self.basis_inv @ (ops % p)) % p @ self.basis) % p
        ring = hmod.matrix_to_ring(conj, k, k)
        if ((hmod.ring_to_matrix(ring, k, k) - conj) % p).any():
            raise InternalCheckError(
                "operator does not commute with the central nilpotent")
        return ring

    def ring_columns_to_rows(self, ring_mat):
        """K-row-vectors spanning the column span of a ring matrix: row
        col*k + shift is eps^shift times ring column col."""
        cols = hmod.ring_to_matrix(ring_mat, self.k, self.k)
        return (cols.T @ self.basis.T) % self.p


def _reference_lift_parts(m, red, base):
    """The lift system of a base flag with nothing kept between calls:
    (coords, offsets, sbar, pivot_rows, other_rows, system, rhs), or None
    for a zero chain."""
    mbar = red.module
    slots = len(base.brseq) - 1
    p, k = m.p, m.k
    offsets, total = reference_total_blocks([m] * slots)
    eps_blocks = hmod.epsilon_blocks(m)
    eps_total = la.zeros(total, total)
    for t in range(slots):
        for i in range(m.n):
            off = offsets[(t, i)]
            eps_total[off:off + m.dims[i], off:off + m.dims[i]] = \
                eps_blocks[i]
    coords = CentralCoordinates(eps_total, k, p)
    bar_offsets, bar_total = reference_total_blocks([mbar] * slots)
    base_rows = [la.zeros(0, bar_total)]
    rho_total = la.zeros(bar_total, total)
    for t in range(slots):
        for i in range(m.n):
            sub = base.layers[t][i]
            bar = slice(bar_offsets[(t, i)],
                        bar_offsets[(t, i)] + mbar.dims[i])
            rows = la.zeros(sub.dim, bar_total)
            rows[:, bar] = sub.basis
            base_rows.append(rows)
            rho_total[bar, offsets[(t, i)]:offsets[(t, i)] + m.dims[i]] = \
                quotient_map(m.dims[i], red.subspaces[i])[0]
    base_rows = np.concatenate(base_rows)
    z_total = base_rows.shape[0] // (k - 1)
    low = [s * k + t for s in range(coords.m) for t in range(k - 1)]
    tbar = (rho_total @ coords.basis[:, low]) % p
    if la.rank(tbar, p) != bar_total:
        raise InternalCheckError("reduced central basis is degenerate")
    tbar_inv = la.inv(tbar, p)
    if z_total == 0:
        return None
    ring_rows = ((base_rows @ tbar_inv.T) % p).reshape(-1, coords.m, k - 1)
    _, _, independent = la.rref(ring_rows[:, :, 0].T, p)
    if len(independent) < z_total:
        raise FlagNotInReduction("base chain is not free over the center")
    amat = ring_rows[list(independent[:z_total])].transpose(1, 0, 2)
    _, _, piv = la.rref(amat[:, :, 0].T, p)
    pivot_rows = list(piv)
    other_rows = [q for q in range(coords.m) if q not in pivot_rows]
    amat = reference_rmul(amat, reference_rinv(amat[pivot_rows], p), p)
    if not np.array_equal(amat[pivot_rows], reference_rid(z_total, k - 1)):
        raise InternalCheckError("chart normalization failed")
    sbar = np.zeros((len(other_rows), z_total, k), dtype=np.int64)
    sbar[:, :, :k - 1] = amat[other_rows]
    rings = coords.operator_to_ring(
        np.stack(reference_generators(m, slots, offsets, total)))
    pm = rings[:, pivot_rows][:, :, pivot_rows]
    qm = rings[:, pivot_rows][:, :, other_rows]
    rm = rings[:, other_rows][:, :, pivot_rows]
    tm = rings[:, other_rows][:, :, other_rows]
    rmul = reference_rmul
    resid = (rm + rmul(tm, sbar, p) - rmul(sbar, pm, p)
             - rmul(sbar, rmul(qm, sbar, p), p)) % p
    if resid[..., :k - 1].any():
        raise FlagNotInReduction(
            "base chain is not invariant under the algebra action")
    rhs = ((-resid[..., k - 1]) % p).reshape(-1)
    s0 = sbar[:, :, 0]
    left = (tm[..., 0] - s0 @ qm[..., 0]) % p
    right = (pm[..., 0] + qm[..., 0] @ s0) % p
    system = ((left_product_matrix(left, z_total)
               - right_product_matrix(right, len(other_rows))) % p
              ).reshape(rhs.shape[0], len(other_rows) * z_total)
    return coords, offsets, sbar, pivot_rows, other_rows, system, rhs


def reference_fiber_of_reduction(m, base):
    """flagvar.fiber_of_reduction as a ring chart over the center of the
    repetitive chain module, as it was before the reduction record: the
    reduction, both rank vectors, the central coordinates and the
    generator rings are all computed again on every call."""
    if m.k < 2:
        raise KTooSmall("fibers of reduction need k >= 2")
    red = reduction.reduce(m)
    mbar = red.module
    if base.module is not mbar and not hmod.modules_equal(base.module, mbar):
        raise FlagNotInReduction(
            "base flag does not live in the reduction of the module")
    try:
        hmod.rank_vector(mbar)
        base._check()
    except ValidationError as exc:
        raise FlagNotInReduction(f"base flag invalid: {exc}") from exc
    seq = tuple(RankVector(r) for r in base.brseq)
    expected = reference_fiber_expected_dimension(mbar, base)
    if len(seq) < 2:
        flag = flagvar.FlagOfSubmodules(m, seq, ())
        return flagvar.FiberOfReduction(base, False, 0, expected, flag,
                                        _builder=lambda coeffs: flag)
    slots = len(seq) - 1
    p, k = m.p, m.k
    parts = _reference_lift_parts(m, red, base)
    if parts is None:
        flag = flagvar.FlagOfSubmodules(m, seq, tuple(
            tuple(la.Subspace.zero(m.dims[i], p) for i in range(m.n))
            for _ in range(slots)))
        flag.validate()
        return flagvar.FiberOfReduction(base, False, 0, expected, flag,
                                        _builder=lambda coeffs: flag)
    coords, offsets, sbar, pivot_rows, other_rows, system, rhs = parts
    solution = la.solve(system, rhs, p)
    if solution is None:
        return flagvar.FiberOfReduction(base, True, None, expected)
    particular_vec, kernel = solution
    dimension = kernel.shape[0]
    if dimension != expected:
        raise InternalCheckError("fiber dimension does not match the "
                                 "Hom-space cross-check")
    hmod.rank_vector(m)
    z_total = sbar.shape[1]
    chart = np.zeros((coords.m, z_total, k), dtype=np.int64)
    chart[pivot_rows] = reference_rid(z_total, k)

    def build(coeffs):
        vec = (particular_vec + (coeffs @ kernel if dimension else 0)) % p
        full = chart.copy()
        full[other_rows] = sbar
        full[other_rows, :, k - 1] = (
            sbar[:, :, k - 1] + vec.reshape(len(other_rows), z_total)) % p
        rows = coords.ring_columns_to_rows(full)
        layers = tuple(
            tuple(la.Subspace.from_rows(
                rows[:, offsets[(t, i)]:offsets[(t, i)] + m.dims[i]],
                m.dims[i], p) for i in range(m.n))
            for t in range(slots))
        flag = flagvar.FlagOfSubmodules(m, seq, layers)
        flag._check()
        return flag

    particular = build(np.zeros(dimension, dtype=np.int64))
    back = flagvar.FlagOfSubmodules(mbar, seq, tuple(
        tuple(la.Subspace.from_rows(
            (layer[i].basis @ quotient_map(m.dims[i], red.subspaces[i])[0].T)
            % p, mbar.dims[i], p)
            for i in range(m.n))
        for layer in particular.layers))
    back._check()
    if back.layers != base.layers:
        raise InternalCheckError("fiber solution does not reduce to base")
    return flagvar.FiberOfReduction(base, False, dimension, expected,
                                    particular, _builder=build)
