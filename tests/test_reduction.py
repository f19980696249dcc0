import itertools

import numpy as np
import pytest

from cartanquiver import exactlinalg as la
from cartanquiver import flagvar, hmod, homext, reduction
from cartanquiver.cartan import RankVector, euler_form
from cartanquiver.errors import KTooSmall

from conftest import golden_module, n_module


class TestReduce:
    def test_k_too_small(self, a2):
        with pytest.raises(KTooSmall):
            reduction.reduce(hmod.free_module(a2, 1, 5, (1, 1)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_free_module_literal(self, a2, b2, k):
        for datum in (a2, b2):
            e = hmod.free_module(datum, k, 5, (2, 1))
            red = reduction.reduce(e).module
            assert hmod.modules_equal(red,
                                      hmod.free_module(datum, k - 1, 5,
                                                       (2, 1)))

    def test_golden_reduction(self, a2):
        m = golden_module(a2, 2, 5)
        red = reduction.reduce(m).module
        assert homext.are_isomorphic(
            red, hmod.free_module(a2, 1, 5, (1, 1))).isomorphic
        e2 = hmod.free_module(a2, 2, 5, (0, 1))
        red_e2 = reduction.reduce(e2).module
        assert hmod.modules_equal(red_e2, hmod.free_module(a2, 1, 5, (0, 1)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_rank_preserved(self, a2, b2, kronecker, k):
        for datum in (a2, b2, kronecker):
            for t in range(8):
                m = hmod.random_locally_free(datum, k, 3, (2, 1), seed=t)
                red = reduction.reduce(m).module
                assert hmod.is_locally_free(red)
                assert hmod.rank_vector(red) == hmod.rank_vector(m)

    def test_direct_sum_compatible(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (1, 1), seed=0)
        n = hmod.random_locally_free(b2, 2, 3, (1, 0), seed=1)
        lhs = reduction.reduce(hmod.direct_sum(m, n)).module
        rhs = hmod.direct_sum(reduction.reduce(m).module,
                              reduction.reduce(n).module)
        assert homext.are_isomorphic(lhs, rhs).isomorphic

    def test_projections_cover(self, a2):
        """The projection onto each quotient, read off the reduction's
        subspace, is onto and the identity on the coordinates off its
        pivots."""
        m = golden_module(a2, 2, 5)
        red = reduction.reduce(m)
        for i in range(2):
            u = red.subspaces[i]
            proj = u.quotient_coords(la.identity(m.dims[i]))
            assert la.rank(proj, 5) == red.module.dims[i]
            assert np.array_equal(proj.take(u.off_pivots, 1),
                                  la.identity(red.module.dims[i]))

    def test_lift_preserved_through_reduce(self, a2):
        m = n_module(a2, 3, 5)
        red = reduction.reduce(m).module
        for q in (2, 3):
            hmod.validate_module(hmod.reduce_mod_p(red, q))


def padded(s: hmod.StructureMatrices) -> hmod.HModule:
    """The module of s's entries read one level up."""
    return reduction.module_at_level(hmod.from_structure_matrices(s),
                                     s.k + 1)


class TestLift:
    def test_lift_free(self, b2):
        s = hmod.to_structure_matrices(hmod.free_module(b2, 1, 5, (2, 1)))
        lifted = padded(s)
        assert hmod.modules_equal(lifted, hmod.free_module(b2, 2, 5, (2, 1)))

    @pytest.mark.parametrize("k", [1, 2])
    def test_lift_n_module(self, a2, k):
        nk = n_module(a2, k, 3)
        lifted = padded(hmod.to_structure_matrices(nk))
        assert hmod.modules_equal(lifted, n_module(a2, k + 1, 3))

    @pytest.mark.parametrize("k", [1, 2])
    def test_reduce_lift_roundtrip(self, a2, b2, kronecker, k):
        for datum in (a2, b2, kronecker):
            for t in range(17):
                s = hmod.random_structure(datum, k, 3, (2, 1), seed=(k, t))
                m = hmod.from_structure_matrices(s)
                back = reduction.reduce(padded(s)).module
                assert hmod.modules_equal(back, m)

    def test_module_at_level(self, a2):
        m = n_module(a2, 2, 3)
        up = reduction.module_at_level(m, 3)
        assert hmod.modules_equal(up, n_module(a2, 3, 3))
        down = reduction.module_at_level(m, 1)
        assert hmod.modules_equal(down, n_module(a2, 1, 3))


def leading_span(m: hmod.HModule, e) -> tuple[la.Subspace, ...]:
    """Per vertex, the span of the first e_i generators (all loop degrees)
    of a module in standard form."""
    assert m.standard_form
    return tuple(
        la.Subspace.from_rows(la.identity(d)[:e[i] * m.loop_order(i)], d, m.p)
        for i, d in enumerate(m.dims))


def leading_flag(m: hmod.HModule, e) -> flagvar.FlagOfSubmodules:
    """The two-step flag of the first e_i generators, validated."""
    e = RankVector(e)
    rank = hmod.rank_vector(m)
    flag = flagvar.FlagOfSubmodules(m, (e, rank - e), (leading_span(m, e),))
    flag.validate()
    return flag


def triangular_structure(datum, k, p, r, e, seed) -> hmod.StructureMatrices:
    """Random structure matrices at level k whose first e_i generators
    span a submodule: the entries from a leading generator at j to a
    trailing one at i are zero."""
    s = hmod.random_structure(datum, k, p, r, seed=seed)
    mats = {key: np.array(arr) for key, arr in s.mats.items()}
    for (i, j), arr in mats.items():
        arr[e[i]:, :abs(datum.c[i][j]) * e[j], :] = 0
    return hmod.structure_from_arrays(datum, k, p, r, mats)


def check_padded_leading_flag(s: hmod.StructureMatrices, e) -> int:
    """The oracle of a leading-generator flag read one level up: below,
    the first e_i generators of s span a flag; one level up (padded) they
    span a flag too, which reduces to the flag below and is one of the
    points of the fiber of the reduction over it.  Returns the fiber's
    dimension."""
    m = hmod.from_structure_matrices(s)
    base = leading_flag(m, e)
    top = padded(s)
    flag = leading_flag(top, e)
    layer = flag.layers[0]
    for label, x, i, j in top.maps_with_labels():
        assert layer[i].contains_rows((x @ layer[j].basis.T).T), label
    red = reduction.reduce(top)
    assert hmod.modules_equal(red.module, m)
    for i, (u, ku) in enumerate(zip(layer, red.subspaces)):
        reduced_layer = la.Subspace.from_rows(
            ku.quotient_coords(u.basis.T).T, red.module.dims[i], s.p)
        assert reduced_layer == base.layers[0][i]
    assert flagvar.reduce_flag(top, flag).layers == base.layers
    fiber = flagvar.fiber_of_reduction(top, base)
    assert not fiber.empty
    points = [fiber.flag_at(np.array(c, dtype=np.int64)).layers
              for c in itertools.product(range(s.p),
                                         repeat=fiber.dimension)]
    assert len(set(points)) == len(points) == fiber.point_count()
    assert flag.layers in points
    return fiber.dimension


class TestLiftChain:
    """Chains of leading generators read one level up
    (`check_padded_leading_flag`)."""

    def test_single_module_chain(self, a2, b2):
        s = hmod.to_structure_matrices(n_module(a2, 1, 2))
        assert hmod.modules_equal(padded(s), n_module(a2, 2, 2))
        full = leading_flag(padded(s), (2, 2))
        assert [u.dim for u in full.layers[0]] == [4, 4]
        m = hmod.free_module(b2, 1, 5, (2, 1))
        assert [u.dim for u in leading_span(m, (1, 0))] == [2, 0]

    def test_two_step_chain(self, a2):
        # the leading generator at each vertex spans a submodule of the
        # block-triangular structure matrix [[0, 1], [0, 0]]
        assert check_padded_leading_flag(
            hmod.to_structure_matrices(n_module(a2, 1, 2)), (1, 1)) == 2

    def test_zero_bottom_chain(self, a2):
        s = hmod.to_structure_matrices(n_module(a2, 1, 2))
        flag = leading_flag(padded(s), (0, 0))
        assert all(sub.dim == 0 for sub in flag.layers[0])
        check_padded_leading_flag(s, (0, 0))


class TestReduceHom:
    def test_identity(self, a2):
        m = golden_module(a2, 2, 5)
        fbar = reduction.reduce_hom(m, m, homext.identity_hom(m))
        red = reduction.reduce(m).module
        for i in range(2):
            assert np.array_equal(fbar[i], la.identity(red.dims[i]))

    def test_golden_hom_dies(self, a2):
        m = golden_module(a2, 2, 5)
        e2 = hmod.free_module(a2, 2, 5, (0, 1))
        f = homext.hom_space(e2, m).elements[0]
        fbar = reduction.reduce_hom(e2, m, f)
        assert all(not fi.any() for fi in fbar)

    def test_functorial(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (1, 1), seed=2)
        end = homext.hom_space(m, m)
        rng = np.random.default_rng(0)
        for _ in range(5):
            f = end.element_from_coeffs(rng.integers(0, 3, size=end.dim))
            g = end.element_from_coeffs(rng.integers(0, 3, size=end.dim))
            lhs = reduction.reduce_hom(m, m, homext.compose(g, f, 3))
            rhs = homext.compose(reduction.reduce_hom(m, m, g),
                                 reduction.reduce_hom(m, m, f), 3)
            assert all(np.array_equal(a, b) for a, b in zip(lhs, rhs))

    def test_surjective_on_rigid_pairs(self, a2, b2):
        # the induced map on Hom spaces hits a full basis downstairs
        for datum in (a2, b2):
            m = homext.find_rigid(datum, 2, 3, (1, 1), trials=20,
                                  seed=0).module
            n = homext.find_rigid(datum, 2, 3, (1, 2), trials=20,
                                  seed=1).module
            basis = homext.hom_space(m, n)
            red_m = reduction.reduce(m).module
            red_n = reduction.reduce(n).module
            down = homext.hom_space(red_m, red_n)
            if down.dim == 0:
                continue
            rows = [down.coords_of(reduction.reduce_hom(m, n, f))
                    for f in basis.elements]
            assert la.rank(np.array(rows), 3) == down.dim


class TestRigidTransfer:
    def test_a2_rank11(self, a2):
        rep = reduction.rigid_transfer_check(a2, 2, (1, 1), k_max=3,
                                             trials=30, seed=0)
        assert rep.ok
        assert all(rep.exists.values())

    def test_unit_rank_chain(self, b2):
        rep = reduction.rigid_transfer_check(b2, 3, (1, 0), k_max=3,
                                             trials=10, seed=0)
        assert rep.ok

    @pytest.mark.parametrize("p", [2, 3])
    def test_kronecker_absent_at_every_k(self, kronecker, p):
        rep = reduction.rigid_transfer_check(kronecker, p, (1, 1), k_max=3,
                                             trials=10, seed=0)
        assert rep.pattern_consistent
        assert not any(rep.exists.values())


class TestIndecomposableRigidPreserved:
    @pytest.mark.parametrize("k", [2, 3])
    def test_reduction_stays_indecomposable_and_rigid(self, a2, b2, k):
        from cartanquiver import gendecomp

        for datum in (a2, b2):
            m = homext.find_rigid(datum, k, 2, (1, 1), trials=30,
                                  seed=8).module
            assert gendecomp.is_indecomposable(m, seed=0)
            red = reduction.reduce(m).module
            assert homext.is_rigid(red)
            assert gendecomp.is_indecomposable(red, seed=0)


class TestEpsilonFiltration:
    def test_free_layers(self, b2):
        e = hmod.free_module(b2, 3, 5, (1, 0))
        rep = reduction.epsilon_filtration_check(e)
        assert rep.ok
        assert rep.layer_dims == ((2, 0),) * 3

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_n_module_layers(self, a2, k):
        rep = reduction.epsilon_filtration_check(n_module(a2, k, 3))
        assert rep.ok
        assert rep.layer_dims == ((2, 2),) * k

    def test_zero_module(self, a2):
        rep = reduction.epsilon_filtration_check(
            hmod.free_module(a2, 2, 5, (0, 0)))
        assert rep.ok

    def test_random_modules(self, a2, b2, kronecker):
        for datum in (a2, b2, kronecker):
            for t in range(5):
                m = hmod.random_locally_free(datum, 3, 3, (2, 1), seed=t)
                assert reduction.epsilon_filtration_check(m).ok


class TestHomDimensionDrop:
    @pytest.mark.parametrize("k", [2, 3])
    def test_drop_equals_base_euler_form_for_rigid(self, a2, b2, k):
        # when Ext vanishes at both levels the Hom dimension drops by the
        # level-1 Euler form
        for datum in (a2, b2):
            m = homext.find_rigid(datum, k, 5, (1, 1), trials=20,
                                  seed=3).module
            n = homext.find_rigid(datum, k, 5, (2, 1), trials=20,
                                  seed=4).module
            for x, y in [(m, m), (m, n), (n, m), (n, n)]:
                red_x = reduction.reduce(x).module
                red_y = reduction.reduce(y).module
                if (homext.ext1_dim(x, y)
                        or homext.ext1_dim(red_x, red_y)):
                    continue
                drop = (homext.hom_space(x, y).dim
                        - homext.hom_space(red_x, red_y).dim)
                assert drop == euler_form(datum, hmod.rank_vector(x),
                                          hmod.rank_vector(y), k=1)


class TestTwistedReduction:
    @pytest.mark.parametrize("k", [2, 3])
    def test_rank_preserved_and_roundtrip(self, b2_rev, g2, k):
        for datum in (b2_rev, g2):
            for t in range(6):
                s = hmod.random_structure(datum, k - 1, 3, (2, 1),
                                          seed=("twr", k, t))
                m = hmod.from_structure_matrices(s)
                lifted = padded(s)
                assert hmod.rank_vector(lifted) == (2, 1)
                back = reduction.reduce(lifted).module
                assert hmod.modules_equal(back, m)

    def test_euler_identity_with_twists(self, b2_rev, g2):
        from cartanquiver.cartan import euler_form

        for datum in (b2_rev, g2):
            m = hmod.random_locally_free(datum, 2, 5, (1, 1), seed=0)
            n = hmod.random_locally_free(datum, 2, 5, (2, 1), seed=1)
            lhs = homext.hom_space(m, n).dim - homext.ext1_dim(m, n)
            assert lhs == euler_form(datum, (1, 1), (2, 1), k=2)

    def test_rigid_transfer_with_twists(self, b2_rev):
        rep = reduction.rigid_transfer_check(b2_rev, 3, (1, 1), k_max=3,
                                             trials=40, seed=0)
        assert rep.ok


class TestReduceModPCommutes:
    @pytest.mark.parametrize("k", [2, 3])
    def test_reduce_commutes_with_prime_change(self, a2, b2, k):
        for datum in (a2, b2):
            m = hmod.random_locally_free(datum, k, 5, (2, 1), seed=31)
            for q in (2, 3):
                lhs = hmod.reduce_mod_p(reduction.reduce(m).module, q)
                rhs = reduction.reduce(hmod.reduce_mod_p(m, q)).module
                assert hmod.modules_equal(lhs, rhs)


class TestRandomChainLifts:
    def test_random_block_triangular_chains(self, a2, b2, kronecker):
        """Every proper leading rank e of every rank r <= (2, 2) at levels
        k <= 3 over p <= 3, one random triangular structure each at level
        k - 1; some fibers are positive dimensional, so the lift is one
        point among several."""
        dims = []
        for k, p, datum in itertools.product((2, 3), (2, 3),
                                             (a2, b2, kronecker)):
            for r in [(1, 1), (2, 1), (1, 2), (2, 2)]:
                for e in itertools.product(*(range(x + 1) for x in r)):
                    if e in ((0, 0), r):
                        continue
                    s = triangular_structure(datum, k - 1, p, r, e,
                                             seed=("chain", k, p, r, e))
                    dims.append(check_padded_leading_flag(s, e))
        assert max(dims) >= 1
