import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanquiver import exactlinalg as la
from cartanquiver import flagvar, hmod, homext
from cartanquiver.cartan import RankVector, euler_form
from cartanquiver.errors import DatumMismatch, NotLocallyFree

from conftest import golden_module, n_module


class TestHomSpace:
    def test_golden_hom_dimension(self, a2):
        m = golden_module(a2, 2, 5)
        e2 = hmod.free_module(a2, 2, 5, (0, 1))
        assert homext.hom_space(e2, m).dim == 1

    def test_reduced_golden_hom_dimension(self, a2):
        s2 = hmod.free_module(a2, 1, 5, (0, 1))
        s1s2 = hmod.free_module(a2, 1, 5, (1, 1))
        assert homext.hom_space(s2, s1s2).dim == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_end_of_free_module(self, a2, b2, k):
        for datum in (a2, b2):
            for r in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
                e = hmod.free_module(datum, k, 3, r)
                expected = sum(k * datum.d[i] * r[i] ** 2 for i in range(2))
                assert homext.hom_space(e, e).dim == expected

    def test_every_basis_element_is_hom(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (2, 1), seed=0)
        n = hmod.random_locally_free(b2, 2, 3, (1, 2), seed=1)
        basis = homext.hom_space(m, n)
        for f in basis.elements:
            assert homext.is_homomorphism(m, n, f)

    def test_datum_mismatch(self, a2, b2):
        with pytest.raises(DatumMismatch):
            homext.hom_space(hmod.free_module(a2, 1, 5, (1, 0)),
                             hmod.free_module(b2, 1, 5, (1, 0)))

    def test_coords_of_roundtrip(self, a2):
        m = n_module(a2, 2, 3)
        basis = homext.hom_space(m, m)
        rng = np.random.default_rng(0)
        coeffs = rng.integers(0, 3, size=basis.dim)
        f = basis.element_from_coeffs(coeffs)
        assert np.array_equal(basis.coords_of(f), coeffs % 3)


class TestExt:
    def test_ext_free_self(self, a2, b2):
        for datum in (a2, b2):
            for k in (1, 2):
                for i in range(2):
                    e = hmod.free_module(datum, k, 5, RankVector.unit(2, i))
                    assert homext.ext1_dim(e, e) == 0

    def test_n_module_not_rigid(self, a2):
        n1 = n_module(a2, 1, 2)
        assert homext.hom_space(n1, n1).dim == 5
        assert euler_form(a2, (2, 2), (2, 2)) == 4
        assert homext.ext1_dim(n1, n1) == 1
        assert not homext.is_rigid(n1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_n_module_not_rigid_all_k(self, a2, k):
        assert not homext.is_rigid(n_module(a2, k, 2))

    def test_rigid_rank_11(self, a2):
        # structure entry 1: the projective-type module
        s = hmod.structure_from_arrays(a2, 1, 2, (1, 1),
                                       {(0, 1): np.array([[1]])})
        m = hmod.from_structure_matrices(s)
        assert homext.hom_space(m, m).dim == 1
        assert euler_form(a2, (1, 1), (1, 1)) == 1
        assert homext.is_rigid(m)

    def test_not_locally_free_rejected(self, a2):
        eps = [la.zeros(1, 1), la.zeros(0, 0)]
        m = hmod.make_module(a2, 2, 5, eps, {})
        with pytest.raises(NotLocallyFree):
            homext.ext1_dim(m, m)

    def test_ext_nonnegative_on_samples(self, a2, b2, kronecker):
        for datum in (a2, b2, kronecker):
            for t in range(10):
                m = hmod.random_locally_free(datum, 2, 3, (2, 1), seed=t)
                n = hmod.random_locally_free(datum, 2, 3, (1, 1),
                                             seed=(t, 1))
                assert homext.ext1_dim(m, n) >= 0
                assert homext.ext1_dim(n, m) >= 0

    def test_free_rigid_without_arrows(self, no_arrows):
        for r in [(1, 1), (2, 1), (0, 3)]:
            e = hmod.free_module(no_arrows, 2, 3, r)
            assert homext.is_rigid(e)

    def test_free_projective_without_arrows(self, no_arrows):
        # with no arrows the free module is projective, so Ext vanishes
        # against everything locally free
        e = hmod.free_module(no_arrows, 2, 3, (1, 2))
        for r in [(1, 1), (2, 2)]:
            m = hmod.free_module(no_arrows, 2, 3, r)
            assert homext.ext1_dim(e, m) == 0

    def test_euler_identity(self, a2, b2, kronecker):
        for datum in (a2, b2, kronecker):
            for t in range(5):
                m = hmod.random_locally_free(datum, 2, 5, (1, 2), seed=t)
                n = hmod.random_locally_free(datum, 2, 5, (2, 1),
                                             seed=(t, "n"))
                lhs = (homext.hom_space(m, n).dim
                       - homext.ext1_dim(m, n))
                assert lhs == euler_form(datum, (1, 2), (2, 1), k=2)


class TestIsomorphism:
    def test_self_isomorphic(self, a2):
        m = n_module(a2, 2, 3)
        res = homext.are_isomorphic(m, m)
        assert res.isomorphic and res.certain
        assert all(la.rank(fi, 3) == d
                   for fi, d in zip(res.witness, m.dims))

    def test_different_dims(self, a2):
        e1 = hmod.free_module(a2, 2, 3, (1, 0))
        e2 = hmod.free_module(a2, 2, 3, (0, 1))
        res = homext.are_isomorphic(e1, e2)
        assert not res.isomorphic and res.certain

    def test_zero_modules(self, a2):
        z1 = hmod.free_module(a2, 2, 3, (0, 0))
        z2 = hmod.free_module(a2, 2, 3, (0, 0))
        res = homext.are_isomorphic(z1, z2)
        assert res.isomorphic and res.certain

    def test_two_rigid_samples_isomorphic(self, a2):
        # over F_2 the rigid locus of rank (1, 1) is the single non-zero
        # structure scalar; sampled rigids must agree up to isomorphism
        mods = []
        for t in range(20):
            m = hmod.random_locally_free(a2, 1, 2, (1, 1), seed=t)
            if homext.is_rigid(m):
                mods.append(m)
        assert len(mods) >= 2
        for m in mods[1:]:
            res = homext.are_isomorphic(mods[0], m)
            assert res.isomorphic and res.certain

    def test_non_isomorphic_same_dims(self, a2):
        free = hmod.free_module(a2, 1, 2, (1, 1))
        s = hmod.structure_from_arrays(a2, 1, 2, (1, 1),
                                       {(0, 1): np.array([[1]])})
        rigid = hmod.from_structure_matrices(s)
        res = homext.are_isomorphic(free, rigid)
        assert not res.isomorphic and res.certain

    def test_equivalence_relation_small(self, a2):
        mods = [hmod.from_structure_matrices(s)
                for s in hmod.iter_structure_matrices(a2, 2, 2, (1, 1))]
        results = {}
        for i, m in enumerate(mods):
            for j, n in enumerate(mods):
                res = homext.are_isomorphic(m, n, seed=(i, j))
                assert res.certain
                results[(i, j)] = res.isomorphic
        for i in range(len(mods)):
            assert results[(i, i)]
            for j in range(len(mods)):
                assert results[(i, j)] == results[(j, i)]
                for t in range(len(mods)):
                    if results[(i, j)] and results[(j, t)]:
                        assert results[(i, t)]


class TestFindRigid:
    def test_a2_minimal(self, a2):
        res = homext.find_rigid(a2, 1, 2, (1, 1), trials=20, seed=0)
        assert res.found()
        assert homext.is_rigid(res.module)

    def test_unit_rank_is_free(self, b2):
        for i in range(2):
            res = homext.find_rigid(b2, 2, 3, RankVector.unit(2, i),
                                    trials=5, seed=0)
            assert res.found()
            iso = homext.are_isomorphic(
                res.module,
                hmod.free_module(b2, 2, 3, RankVector.unit(2, i)))
            assert iso.isomorphic

    @pytest.mark.parametrize("p", [2, 3])
    def test_kronecker_11_none_exhaustive(self, kronecker, p):
        res = homext.find_rigid(kronecker, 1, p, (1, 1), trials=10, seed=0)
        assert not res.found()
        assert res.exhaustive and res.none_exists

    def test_zero_rank(self, a2):
        res = homext.find_rigid(a2, 2, 3, (0, 0), trials=1, seed=0)
        assert res.found()
        assert res.module.total_dim() == 0


class TestParameterEstimate:
    def test_rigid_rank_gives_zero(self, a2):
        est = homext.parameter_estimate(a2, 1, 3, (1, 1), samples=30)
        assert est.value == 0
        assert est.exhaustive

    @pytest.mark.parametrize("p", [2, 3])
    def test_kronecker_level_one(self, kronecker, p):
        est = homext.parameter_estimate(kronecker, 1, p, (1, 1))
        assert est.exhaustive and est.value == 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_kronecker_level_two(self, kronecker, p):
        est = homext.parameter_estimate(kronecker, 2, p, (1, 1))
        assert est.exhaustive and est.value == 2
        assert est.experimental


# --- brute force over F_2 and F_3 ---------------------------------------------

MAX_UNKNOWNS = 12


def _unknowns(datum, k, ranks_x, ranks_y):
    """Number of Hom unknowns between locally free slot modules."""
    return sum((k * d) ** 2 * a * b
               for rx, ry in zip(ranks_x, ranks_y)
               for d, a, b in zip(datum.d, rx, ry))


def _small_cases(data, slots):
    """(datum index, k, source ranks, target ranks) with at most
    MAX_UNKNOWNS unknowns; one rank vector per slot."""
    ranks = list(itertools.product(range(3), repeat=2))
    out = []
    for idx, datum in enumerate(data):
        for k in (1, 2):
            for rx in itertools.product(ranks, repeat=slots):
                for ry in itertools.product(ranks, repeat=slots):
                    if _unknowns(datum, k, rx, ry) <= MAX_UNKNOWNS:
                        out.append((idx, k, rx, ry))
    return out


def _explicit_relations(xs, ys, cx, cy):
    """(X, Y, a, b) meaning f_a @ X == Y @ f_b, written out from the loops,
    the arrows and the connectors of slot modules xs, ys (vertex (t, i) of
    slot t is a = t*n + i)."""
    n = xs[0].n
    out = []
    for t, (x, y) in enumerate(zip(xs, ys)):
        for i in range(n):
            out.append((x.eps[i], y.eps[i], t * n + i, t * n + i))
        for (i, j), mats in x.arrows.items():
            for g, mat in enumerate(mats):
                out.append((mat, y.arrows[(i, j)][g], t * n + i, t * n + j))
    for t, (mx, my) in enumerate(zip(cx, cy)):
        for i in range(n):
            out.append((mx[i], my[i], (t + 1) * n + i, t * n + i))
    return out


def _brute_force_count(p, dims_x, dims_y, relations):
    """Number of per-vertex matrix tuples f (f_a of shape dims_y[a] x
    dims_x[a]) satisfying every relation, by enumerating all of them."""
    sizes = [dy * dx for dx, dy in zip(dims_x, dims_y)]
    width = sum(sizes)
    powers = p ** np.arange(width, dtype=np.int64)
    total = 0
    step = 1 << 14
    for start in range(0, p ** width, step):
        codes = np.arange(start, min(p ** width, start + step),
                          dtype=np.int64)
        digits = (codes[:, None] // powers) % p
        fs = []
        pos = 0
        for dx, dy, size in zip(dims_x, dims_y, sizes):
            fs.append(digits[:, pos:pos + size].reshape(len(codes), dy, dx))
            pos += size
        ok = np.ones(len(codes), dtype=bool)
        for x, y, a, b in relations:
            ok &= ~((fs[a] @ x - y @ fs[b]) % p).any(axis=(1, 2))
        total += int(np.count_nonzero(ok))
    return total


def _random_hom(data, source, target):
    basis = homext.hom_space(source, target)
    coeffs = data.draw(st.lists(st.integers(0, source.p - 1),
                                min_size=basis.dim, max_size=basis.dim))
    return basis.element_from_coeffs(coeffs)


class TestHomBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_module_hom_count(self, a2, b2, kronecker, data):
        datums = (a2, b2, kronecker)
        idx, k, (rm,), (rn,) = data.draw(st.sampled_from(
            _small_cases(datums, 1)))
        p = data.draw(st.sampled_from((2, 3)))
        seed = data.draw(st.integers(0, 2 ** 16))
        m = hmod.random_locally_free(datums[idx], k, p, rm, seed=(seed, 0))
        n = hmod.random_locally_free(datums[idx], k, p, rn, seed=(seed, 1))
        count = _brute_force_count(p, m.dims, n.dims,
                                   _explicit_relations((m,), (n,), (), ()))
        assert p ** homext.hom_space(m, n).dim == count

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_two_slot_tensor_hom_count(self, a2, b2, kronecker, data):
        datums = (a2, b2, kronecker)
        idx, k, rx, ry = data.draw(st.sampled_from(_small_cases(datums, 2)))
        p = data.draw(st.sampled_from((2, 3)))
        seed = data.draw(st.integers(0, 2 ** 16))
        xs = [hmod.random_locally_free(datums[idx], k, p, r, seed=(seed, t))
              for t, r in enumerate(rx)]
        ys = [hmod.random_locally_free(datums[idx], k, p, r,
                                       seed=(seed, 2 + t))
              for t, r in enumerate(ry)]
        cx = (_random_hom(data, *xs),)
        cy = (_random_hom(data, *ys),)
        x = flagvar.TensorModule(tuple(xs), cx)
        y = flagvar.TensorModule(tuple(ys), cy)
        count = _brute_force_count(p, x.dims, y.dims,
                                   _explicit_relations(xs, ys, cx, cy))
        assert p ** flagvar.hom_tensor(x, y).dim == count


def reference_intertwiner_rows(m, n, offsets, total):
    """The relation blocks assembled with np.kron against identities."""
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


class _ListedMaps:
    """What the Hom assembly reads of a module: p, dims and the labelled
    structure maps."""

    def __init__(self, p, dims, maps):
        self.p = p
        self.dims = tuple(dims)
        self._maps = maps

    def maps_with_labels(self):
        return self._maps


@st.composite
def relation_pairs(draw):
    """Two listed modules on up to three vertices (dimension 0 allowed)
    with up to five paired maps between random vertices."""
    p = draw(st.sampled_from([2, 3, 7, la.MAX_PRIME]))
    n_vertices = draw(st.integers(1, 3))
    dims = st.lists(st.integers(0, 3), min_size=n_vertices,
                    max_size=n_vertices)
    dm, dn = draw(dims), draw(dims)
    entry = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))

    def matrix(rows, cols):
        flat = draw(st.lists(entry, min_size=rows * cols,
                             max_size=rows * cols))
        return np.array(flat, dtype=np.int64).reshape(rows, cols)

    m_maps, n_maps = [], []
    for g in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, n_vertices - 1))
        j = draw(st.integers(0, n_vertices - 1))
        m_maps.append((f"map {g}", matrix(dm[i], dm[j]), i, j))
        n_maps.append((f"map {g}", matrix(dn[i], dn[j]), i, j))
    return _ListedMaps(p, dm, m_maps), _ListedMaps(p, dn, n_maps)


@settings(max_examples=200, deadline=None)
@given(relation_pairs())
def test_intertwiner_rows_match_kron_reference(pair):
    m, n = pair
    offsets, total = homext._layout(m, n)
    got = homext.intertwiner_rows(m, n, offsets, total)
    want = reference_intertwiner_rows(m, n, offsets, total)
    assert len(got) == len(want)
    for block, ref in zip(got, want):
        assert block.shape == ref.shape
        assert np.array_equal(block, ref)
