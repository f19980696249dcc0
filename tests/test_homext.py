import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanquiver import exactlinalg as la
from cartanquiver import flagvar, hmod, homext
from cartanquiver.cartan import RankVector, euler_form
from cartanquiver.errors import (
    DatumMismatch,
    InternalCheckError,
    NotLocallyFree,
    ValidationError,
)

from conftest import (
    assert_matches_dense,
    golden_module,
    make_datum,
    n_module,
    reference_flag_tensor_modules,
    unitriangular_conjugate,
)


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

    def test_elements_built_on_first_access(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (2, 1), seed=0)
        basis = homext.hom_space(m, m)
        assert basis.dim == basis.vec_basis.shape[0] > 0
        assert "elements" not in vars(basis)
        elements = basis.elements
        assert basis.elements is elements and len(elements) == basis.dim
        for row, f in zip(basis.vec_basis, elements):
            assert np.array_equal(homext._flatten(f), row)
            assert [fi.shape for fi in f] == [(d, d) for d in m.dims]
        empty = homext.hom_space(hmod.free_module(b2, 1, 3, (0, 0)),
                                 hmod.free_module(b2, 1, 3, (0, 0)))
        assert empty.dim == 0 and empty.elements == ()

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


    def test_element_from_coeffs_rejects_non_integers(self, a2):
        # a cast would truncate 1.9 to 1 and give the element of [1, 0]
        m = hmod.random_locally_free(a2, 2, 3, (1, 1), seed=0)
        basis = homext.hom_space(m, m)
        assert basis.dim >= 1
        coeffs = [1.9] + [0] * (basis.dim - 1)
        with pytest.raises(ValidationError):
            basis.element_from_coeffs(coeffs)
        with pytest.raises(ValidationError):
            basis.element_from_coeffs(np.array(coeffs))
        whole = basis.element_from_coeffs([1] + [0] * (basis.dim - 1))
        assert all(np.array_equal(f, g)
                   for f, g in zip(whole, basis.elements[0]))

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

    def test_self_ext_reads_the_rank_once(self, b2, monkeypatch):
        m = hmod.random_locally_free(b2, 2, 3, (2, 1), seed=1)
        n = hmod.random_locally_free(b2, 2, 3, (1, 1), seed=2)
        calls = []
        original = hmod.rank_vector

        def counted(mod):
            calls.append(mod)
            return original(mod)

        monkeypatch.setattr(hmod, "rank_vector", counted)
        homext.ext1_dim(m, m)
        assert calls == [m]
        homext.ext1_dim(m, n)
        assert calls == [m, m, n]

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

    def test_equal_modules_certain_without_a_search(self, a2, monkeypatch):
        # a copy with the same matrices is isomorphic by the identity, with
        # no trial and no exhaustive scan
        monkeypatch.setattr(homext, "ISO_TRIALS", 0)
        monkeypatch.setattr(homext, "ISO_EXHAUSTIVE_BUDGET", 0)
        m = n_module(a2, 2, 3)
        copy = hmod.make_module(m.datum, m.k, m.p, m.eps, m.arrows)
        assert copy is not m and hmod.modules_equal(m, copy)
        res = homext.are_isomorphic(m, copy)
        assert res.isomorphic and res.certain
        assert all(np.array_equal(fi, la.identity(d))
                   for fi, d in zip(res.witness, m.dims, strict=True))

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


# --- ring unknowns against the dense oracle ------------------------------------

class _ListedMaps:
    """What the Hom assembly reads of a module: p, dims and the labelled
    structure maps."""

    def __init__(self, p, dims, maps):
        self.p = p
        self.dims = tuple(dims)
        self._maps = maps

    def maps_with_labels(self):
        return self._maps


def _draw_matrix(draw, p, rows, cols):
    entry = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    flat = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


def _jordan(order, gens):
    """Generator-major nilpotent Jordan matrix: `gens` blocks of size
    `order` (the zero matrix for order 1)."""
    return np.kron(la.identity(gens), np.eye(order, k=-1, dtype=np.int64))


@st.composite
def relation_pairs(draw):
    """Two listed modules on up to three vertices (dimension 0 allowed)
    with up to five paired maps between random vertices."""
    p = draw(st.sampled_from([2, 3, 7, la.MAX_PRIME]))
    n_vertices = draw(st.integers(1, 3))
    dims = st.lists(st.integers(0, 3), min_size=n_vertices,
                    max_size=n_vertices)
    dm, dn = draw(dims), draw(dims)
    m_maps, n_maps = [], []
    for g in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, n_vertices - 1))
        j = draw(st.integers(0, n_vertices - 1))
        m_maps.append((f"map {g}", _draw_matrix(draw, p, dm[i], dm[j]), i, j))
        n_maps.append((f"map {g}", _draw_matrix(draw, p, dn[i], dn[j]), i, j))
    return _ListedMaps(p, dm, m_maps), _ListedMaps(p, dn, n_maps)


@st.composite
def jordan_pairs(draw):
    """Two listed modules with a Jordan self-map pair at every vertex
    (block size 1 is the zero matrix; the two sides may differ in block
    size), among random self-maps and arrows in random order.  Returns
    the pair and, per vertex, the ring order the layout must pick."""
    p = draw(st.sampled_from([2, 3, 7]))
    n_vertices = draw(st.integers(1, 3))
    maps, expected, dm, dn = [], [], [], []
    for v in range(n_vertices):
        om = draw(st.integers(1, 3))
        on = draw(st.one_of(st.just(om), st.integers(1, 3)))
        rm, rn = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        dm.append(om * rm)
        dn.append(on * rn)
        maps.append((_jordan(om, rm), _jordan(on, rn), v, v))
        expected.append(om if om == on and rm and rn else 0)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, n_vertices - 1))
        j = draw(st.integers(0, n_vertices - 1))
        maps.append((_draw_matrix(draw, p, dm[i], dm[j]),
                     _draw_matrix(draw, p, dn[i], dn[j]), i, j))
    maps = draw(st.permutations(maps))
    m = _ListedMaps(p, dm, [(f"map {g}", x, i, j)
                            for g, (x, _, i, j) in enumerate(maps)])
    n = _ListedMaps(p, dn, [(f"map {g}", y, i, j)
                            for g, (_, y, i, j) in enumerate(maps)])
    return m, n, expected


def test_each_solve_derives_its_relations_once(a2, b2, monkeypatch):
    """`hom_space` and `flagvar.hom_tensor` pair the maps of their two
    sides into one relation list, once per solve, and hand that list to
    the layout, the rows and the substitution check."""
    calls = []
    original = homext._relations

    def counted(m, n):
        calls.append((m, n))
        return original(m, n)

    monkeypatch.setattr(homext, "_relations", counted)
    for datum in (a2, b2):
        m = hmod.random_locally_free(datum, 2, 3, (2, 1), seed=3)
        n = hmod.random_locally_free(datum, 2, 3, (1, 1), seed=4)
        for a, b in ((m, n), (n, m), (m, m)):
            del calls[:]
            homext.hom_space(a, b)
            assert calls == [(a, b)]
        flag = next(flagvar.iter_flags(m, [(1, 0), (1, 1)]))
        x, y = reference_flag_tensor_modules(m, flag)
        del calls[:]
        flagvar.hom_tensor(x, y)
        assert calls == [(x, y)]


@settings(max_examples=200, deadline=None)
@given(relation_pairs())
def test_intertwiner_rows_match_kron_reference(pair):
    m, n = pair
    assert_matches_dense(homext._hom_basis(m, n), m, n)


@settings(max_examples=200, deadline=None)
@given(jordan_pairs())
def test_jordan_self_maps_match_kron_reference(case):
    m, n, expected = case
    relations = homext._relations(m, n)
    orders, built = _first_jordan_pairs(relations, len(m.dims))
    assert all(v in built for v, want in enumerate(expected) if want)
    assert homext._layout(m.dims, n.dims, relations).orders == tuple(orders)
    assert_matches_dense(homext._hom_basis(m, n), m, n)


@settings(max_examples=200, deadline=None)
@given(st.one_of(relation_pairs(), jordan_pairs().map(lambda c: c[:2])))
def test_layout_has_one_unknown_form(pair):
    """Every vertex has an order >= 1, and exactly the brute-force pairs
    are built in; the bounds count dn * dm / o unknowns per vertex."""
    m, n = pair
    relations = homext._relations(m, n)
    orders, built = _first_jordan_pairs(relations, len(m.dims))
    layout = homext._layout(m.dims, n.dims, relations)
    assert 0 not in layout.orders
    assert layout.orders == tuple(orders)
    assert layout.built_in == frozenset(built.values())
    assert layout.bounds == tuple(itertools.accumulate(
        (dn * dm // o for dm, dn, o in zip(m.dims, n.dims, orders)),
        initial=0))


def _first_jordan_pairs(relations, n_vertices):
    """Per vertex, the order the layout must pick, and the index of the
    relation it must build in: the first self-map pair at the vertex whose
    matrices are Jordan of one block size (a random self-map that is zero
    on both sides is such a pair, with block size 1), found by brute
    force; order 1 and nothing built in where there is none."""
    orders = [1] * n_vertices
    built = {}
    for index, (_, x, y, i, j) in enumerate(relations):
        if i == j and i not in built:
            o = _block_size(x)
            if o and o == _block_size(y):
                orders[i] = o
                built[i] = index
    return orders, built


def _block_size(x):
    """The block size of a generator-major Jordan matrix, found by brute
    force over the candidates, or 0."""
    for o in range(1, x.shape[0] + 1):
        if x.shape[0] % o == 0 and np.array_equal(
                x, _jordan(o, x.shape[0] // o)):
            return o
    return 0


class TestRingUnknowns:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_module_pairs_match_dense(self, a2, b2, b2_rev, g2, kronecker,
                                      data):
        double = make_datum([[2, -2], [-4, 2]], [2, 1], [(0, 1)])
        datum = data.draw(st.sampled_from(
            [a2, b2, b2_rev, g2, kronecker, double]))
        k = data.draw(st.integers(1, 3))
        p = data.draw(st.sampled_from((2, 3)))
        ranks = st.tuples(st.integers(0, 2), st.integers(0, 2))
        seed = data.draw(st.integers(0, 2 ** 16))
        m, n = (hmod.random_locally_free(datum, k, p, data.draw(ranks),
                                         seed=(seed, t)) for t in range(2))
        # change the basis at some vertices: their loops leave Jordan form
        rng = np.random.default_rng(seed)
        vertices = data.draw(st.sets(st.integers(0, 1)))
        m = unitriangular_conjugate(m, vertices, rng)
        for x, y in ((m, n), (n, m), (m, m)):
            assert_matches_dense(homext.hom_space(x, y), x, y)

    def test_b2_rank_32_end_system_is_ring_sized(self, b2, monkeypatch):
        m = hmod.random_locally_free(b2, 3, 2, (3, 2), seed=7)
        # a direct sum of standard modules is standard
        ds = hmod.direct_sum(hmod.random_locally_free(b2, 3, 2, (2, 1),
                                                      seed=8),
                             hmod.random_locally_free(b2, 3, 2, (1, 1),
                                                      seed=9))
        assert ds.standard_form
        rep = flagvar.TensorModule((ds,) * 2, (homext.identity_hom(ds),))
        shapes = []
        original = la.kernel_basis_and_support

        def capture(a, p):
            shapes.append(a.shape)
            return original(a, p)

        monkeypatch.setattr(la, "kernel_basis_and_support", capture)
        homext.hom_space(m, m)
        homext.hom_space(ds, ds)
        flagvar.hom_tensor(rep, rep)
        # dense unknowns would be 18^2 + 6^2 = 360 per slot
        assert shapes == [(108, 66), (108, 66), (2 * 108 + 18 ** 2 + 6 ** 2,
                                                 132)]

    def test_substitution_check_covers_built_in_loops(self, one_vertex,
                                                      monkeypatch):
        m = hmod.free_module(one_vertex, 2, 3, (2,))
        original = hmod.ring_to_matrix

        def off_by_corner(ring, mi, mj, fij=1, fji=1):
            out = original(ring, mi, mj, fij, fji)
            out[..., 0, -1] += 1
            return out

        monkeypatch.setattr(hmod, "ring_to_matrix", off_by_corner)
        # the loop relation has no equation rows; only the substitution
        # check of the expanded basis sees the broken expansion
        with pytest.raises(InternalCheckError, match="eps_1"):
            homext.hom_space(m, m)
