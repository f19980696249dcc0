"""Three-vertex data: linear A-type and a mixed-symmetrizer chain.

The canonical decompositions of A-type rank vectors are classical (parts
are intervals), which gives exact oracles for the generic machinery; the
multi-vertex quiver also exercises arrow bookkeeping across more than one
oriented pair.
"""

import numpy as np
import pytest

from cartanquiver import cartan, flagvar, gendecomp, hmod, homext, reduction
from cartanquiver.cartan import RankVector, euler_form, flag_dimension


INTERVALS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
             (1, 1, 1)]


class TestA3Canonical:
    @pytest.mark.parametrize("r,expected", [
        ((1, 0, 1), ((0, 0, 1), (1, 0, 0))),
        ((1, 1, 1), ((1, 1, 1),)),
        ((2, 1, 1), ((1, 0, 0), (1, 1, 1))),
        # generically im(V_3 -> V_2) escapes ker(V_2 -> V_1), giving the
        # long interval plus the middle simple (not the two short ones:
        # ext((0,1,1), (1,1,0)) = 1 via the standard overlap extension)
        ((1, 2, 1), ((0, 1, 0), (1, 1, 1))),
        ((1, 1, 2), ((0, 0, 1), (1, 1, 1))),
        ((0, 2, 0), ((0, 1, 0), (0, 1, 0))),
    ])
    def test_known_decompositions(self, a3, r, expected):
        for k in (1, 2):
            rep = gendecomp.canonical_decomposition(a3, k, 2, r,
                                                    seed=("a3", k))
            assert rep.parts == expected
            assert rep.criteria_ok

    @pytest.mark.parametrize("r", INTERVALS)
    def test_intervals_are_schur(self, a3, r):
        assert gendecomp.is_schur_root(a3, 1, 2, r).is_schur

    def test_non_root_not_schur(self, a3):
        assert not gendecomp.is_schur_root(a3, 1, 2, (1, 0, 1)).is_schur


class TestA3Modules:
    def test_rigid_search_and_transfer(self, a3):
        rep = reduction.rigid_transfer_check(a3, 2, (1, 1, 1), k_max=3,
                                             trials=40, seed=0)
        assert rep.ok and all(rep.exists.values())

    def test_krull_schmidt_generic(self, a3):
        m = homext.find_rigid(a3, 1, 3, (1, 2, 1), trials=40, seed=1).module
        ks = gendecomp.krull_schmidt(m, seed=2)
        assert ks.rank_multiset() == ((0, 1, 0), (1, 1, 1))

    @pytest.mark.parametrize("k", [2, 3])
    def test_reduction_preserves_rank(self, a3, k):
        for t in range(5):
            m = hmod.random_locally_free(a3, k, 3, (1, 2, 1), seed=t)
            red = reduction.reduce(m).module
            assert hmod.rank_vector(red) == (1, 2, 1)


class TestA3Flags:
    def test_full_flag_of_rigid(self, a3):
        for k in (1, 2):
            m = homext.find_rigid(a3, k, 2, (1, 1, 1), trials=40,
                                  seed=3).module
            brseq = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
            d = flag_dimension(a3, brseq)
            count = flagvar.point_count(m, brseq)
            assert count == 2 ** (k * d)
            expected = sum(euler_form(a3, a, b, k=k)
                           for idx, a in enumerate(brseq)
                           for b in brseq[idx + 1:])
            for flag in flagvar.iter_flags(m, brseq):
                assert flagvar.tangent_dimension(m, flag) == expected

    def test_fibers_partition(self, a3):
        m = homext.find_rigid(a3, 2, 2, (1, 1, 1), trials=40,
                              seed=4).module
        brseq = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        d = flag_dimension(a3, brseq)
        base_mod = reduction.reduce(m).module
        total = 0
        for base in flagvar.iter_flags(base_mod, brseq):
            fib = flagvar.fiber_of_reduction(m, base)
            assert not fib.empty and fib.dimension == d
            total += fib.point_count()
        assert total == flagvar.point_count(m, brseq)

    def test_bundle_ratio(self, a3):
        m = homext.find_rigid(a3, 2, 2, (1, 1, 1), trials=40,
                              seed=5).module
        for brseq in ([(1, 0, 0), (0, 1, 1)], [(1, 1, 0), (0, 0, 1)],
                      [(0, 1, 1), (1, 0, 0)]):
            rep = flagvar.bundle_ratio_check(m, brseq, primes=(2,))
            assert rep.all_ok


class TestB3Mixed:
    def test_validates(self, b3):
        assert b3.f(0, 1) == 1 and b3.f(1, 0) == 1
        assert b3.f(1, 2) == 1 and b3.f(2, 1) == 2

    def test_rigid_transfer(self, b3):
        rep = reduction.rigid_transfer_check(b3, 2, (1, 1, 1), k_max=2,
                                             trials=40, seed=6)
        assert rep.ok

    def test_k_independence(self, b3):
        rep = gendecomp.k_independence_check(b3, 2, (1, 1, 1), k_max=2,
                                             seed=7)
        assert rep.agree
        for sub in rep.reports:
            assert sub.criteria_ok

    def test_euler_identity(self, b3):
        m = hmod.random_locally_free(b3, 2, 3, (1, 1, 1), seed=8)
        n = hmod.random_locally_free(b3, 2, 3, (0, 1, 1), seed=9)
        lhs = homext.hom_space(m, n).dim - homext.ext1_dim(m, n)
        assert lhs == euler_form(b3, (1, 1, 1), (0, 1, 1), k=2)

    def test_epsilon_filtration(self, b3):
        for t in range(5):
            m = hmod.random_locally_free(b3, 3, 2, (1, 1, 1), seed=t)
            assert reduction.epsilon_filtration_check(m).ok


class TestLongFlags:
    def test_length_four_flag_fibers(self, a3):
        m = homext.find_rigid(a3, 2, 2, (1, 1, 2), trials=60,
                              seed=10).module
        brseq = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        d = flag_dimension(a3, brseq)
        base_mod = reduction.reduce(m).module
        total = 0
        bases = list(flagvar.iter_flags(base_mod, brseq))
        assert bases
        for base in bases:
            fib = flagvar.fiber_of_reduction(m, base)
            assert not fib.empty and fib.dimension == d
            total += fib.point_count()
        assert total == flagvar.point_count(m, brseq)
        expected = sum(euler_form(a3, a, b, k=2)
                       for idx, a in enumerate(brseq)
                       for b in brseq[idx + 1:])
        for flag in list(flagvar.iter_flags(m, brseq))[:20]:
            assert flagvar.tangent_dimension(m, flag) == expected
