import itertools

import numpy as np
import pytest

from cartanquiver import gendecomp, hmod, homext
from cartanquiver.cartan import RankVector

from conftest import n_module


class TestKrullSchmidt:
    def test_free_module_splits_into_units(self, a2, b2):
        for datum in (a2, b2):
            e = hmod.free_module(datum, 2, 3, (2, 1))
            ks = gendecomp.krull_schmidt(e, seed=0)
            assert ks.rank_multiset() == ((0, 1), (1, 0), (1, 0))
            assert ks.certainty == gendecomp.EXHAUSTIVE

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_n_module_three_parts(self, a2, k):
        ks = gendecomp.krull_schmidt(n_module(a2, k, 2), seed=1)
        assert ks.rank_multiset() == ((0, 1), (1, 0), (1, 1))
        assert ks.summand_count() == 3
        # parts are pairwise non-isomorphic here
        assert all(mult == 1 for _, mult in ks.parts)

    def test_indecomposable_rigid_returned_whole(self, a2):
        s = hmod.structure_from_arrays(a2, 1, 2, (1, 1),
                                       {(0, 1): np.array([[1]])})
        m = hmod.from_structure_matrices(s)
        ks = gendecomp.krull_schmidt(m, seed=2)
        assert ks.rank_multiset() == ((1, 1),)
        assert ks.certainty == gendecomp.EXHAUSTIVE

    def test_zero_module(self, a2):
        ks = gendecomp.krull_schmidt(hmod.free_module(a2, 2, 3, (0, 0)))
        assert ks.parts == ()

    def test_parts_sum_to_input(self, a2, b2, kronecker):
        for datum in (a2, b2, kronecker):
            for t in range(6):
                m = hmod.random_locally_free(datum, 2, 2, (2, 1), seed=t)
                ks = gendecomp.krull_schmidt(m, seed=(t, 1))
                total = RankVector.zero(2)
                for part in ks.rank_multiset():
                    total = total + RankVector(part)
                assert total == hmod.rank_vector(m)

    def test_isotypic_pair(self, a2):
        # two copies of the same indecomposable: one part, multiplicity 2
        s = hmod.structure_from_arrays(a2, 1, 3, (1, 1),
                                       {(0, 1): np.array([[1]])})
        m = hmod.from_structure_matrices(s)
        double = hmod.direct_sum(m, m)
        ks = gendecomp.krull_schmidt(double, seed=4)
        assert ks.rank_multiset() == ((1, 1), (1, 1))
        assert len(ks.parts) == 1 and ks.parts[0][1] == 2


class TestIndecomposability:
    def test_unit_free_indecomposable(self, b2):
        for k in (1, 2):
            m = hmod.free_module(b2, k, 3, (1, 0))
            res = gendecomp.is_indecomposable(m)
            assert res and res.certainty == gendecomp.EXHAUSTIVE

    def test_free_pair_decomposable(self, a2):
        m = hmod.free_module(a2, 1, 2, (1, 1))
        assert not gendecomp.is_indecomposable(m)

    def test_zero_not_indecomposable(self, a2):
        assert not gendecomp.is_indecomposable(
            hmod.free_module(a2, 1, 2, (0, 0)))


def _has_proper_idempotent(m):
    """Brute force: square every element of End(M) with compose."""
    basis = homext.hom_space(m, m)
    one = homext.identity_hom(m)
    for coeffs in itertools.product(range(m.p), repeat=basis.dim):
        e = basis.element_from_coeffs(coeffs)
        if not any(ei.any() for ei in e):
            continue
        if all(np.array_equal(ei, oi) for ei, oi in zip(e, one)):
            continue
        square = homext.compose(e, e, m.p)
        if all(np.array_equal(si, ei) for si, ei in zip(square, e)):
            return True
    return False


# (datum fixture, k, p, rank): every structure point is visited
ORACLE_SPACES = [("a2", 1, 2, (1, 1)), ("a2", 1, 2, (2, 1)),
                 ("a2", 2, 2, (1, 1)), ("a2", 2, 2, (2, 1)),
                 ("a2", 1, 3, (2, 1)), ("b2", 1, 2, (1, 1)),
                 ("b2", 1, 2, (2, 1)), ("b2", 1, 2, (1, 2)),
                 ("b2", 2, 2, (1, 1)), ("kronecker", 1, 2, (1, 1)),
                 ("kronecker", 1, 2, (2, 1)), ("kronecker", 1, 2, (1, 2))]
ORACLE_IDS = [f"{name}-k{k}-p{p}-r{r[0]}{r[1]}"
              for name, k, p, r in ORACLE_SPACES]


class TestSplittingOracle:
    """Every structure point of small spaces, against brute force."""

    @pytest.mark.parametrize("name,k,p,r", ORACLE_SPACES, ids=ORACLE_IDS)
    def test_against_idempotent_brute_force(self, request, name, k, p, r):
        datum = request.getfixturevalue(name)
        for t, s in enumerate(hmod.iter_structure_matrices(datum, k, p, r)):
            m = hmod.from_structure_matrices(s)
            decomposable = _has_proper_idempotent(m)
            # the scan alone, since basis Fitting splits may decide first
            scan = gendecomp._scan_idempotents(m, homext.hom_space(m, m))
            assert (scan is not None) == decomposable
            res = gendecomp.is_indecomposable(m, seed=t)
            assert bool(res) == (not decomposable)
            assert res.certainty == gendecomp.EXHAUSTIVE
            ks = gendecomp.krull_schmidt(m, seed=t)
            assert ks.certainty == gendecomp.EXHAUSTIVE
            assert tuple(map(sum, zip(*ks.rank_multiset()))) == r
            assert (ks.summand_count() > 1) == decomposable
            for part, _ in ks.parts:
                assert not _has_proper_idempotent(part)

    @pytest.mark.parametrize("name,k,p,r", ORACLE_SPACES, ids=ORACLE_IDS)
    def test_over_budget_path(self, request, monkeypatch, name, k, p, r):
        # budget 1 skips the scan: splits stay exhaustive, while a negative
        # answer rests on the random trials alone
        datum = request.getfixturevalue(name)
        monkeypatch.setattr(gendecomp, "IDEMPOTENT_BUDGET", 1)
        for t, s in enumerate(hmod.iter_structure_matrices(datum, k, p, r)):
            m = hmod.from_structure_matrices(s)
            res = gendecomp.is_indecomposable(m, seed=t)
            assert bool(res) == (not _has_proper_idempotent(m))
            assert res.certainty == (gendecomp.MONTE_CARLO if res
                                     else gendecomp.EXHAUSTIVE)

    def test_over_budget_local_end(self, b2, monkeypatch):
        # E_1 at k=1: End = F_p[x]/(x^2), indecomposable with dim End = 2
        m = hmod.free_module(b2, 1, 2, (1, 0))
        assert homext.hom_space(m, m).dim == 2
        assert gendecomp.is_indecomposable(m).certainty == \
            gendecomp.EXHAUSTIVE
        monkeypatch.setattr(gendecomp, "IDEMPOTENT_BUDGET", 1)
        res = gendecomp.is_indecomposable(m)
        assert res and res.certainty == gendecomp.MONTE_CARLO
        ks = gendecomp.krull_schmidt(m)
        assert ks.rank_multiset() == ((1, 0),)
        assert ks.certainty == gendecomp.MONTE_CARLO


class TestExtGeneric:
    def test_unit_pairs_a2(self, a2):
        assert gendecomp.ext_generic(a2, 1, 2, (1, 0), (0, 1)) == 0
        assert gendecomp.ext_generic(a2, 1, 2, (0, 1), (1, 0)) == 1

    def test_zero_target(self, a2):
        assert gendecomp.ext_generic(a2, 2, 3, (1, 1), (0, 0)) == 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_k_scaling_of_unit_ext(self, a2, k):
        # dim Hom(E_2, E_1) = 0 and <e_2, e_1> = -k force Ext = k
        assert gendecomp.ext_generic(a2, k, 2, (0, 1), (1, 0)) == k

    def test_vanishes_for_schur_pair(self, a2):
        # the canonical parts of (1, 2): Ext vanishes both ways
        assert gendecomp.ext_generic(a2, 1, 2, (1, 1), (0, 1)) == 0
        assert gendecomp.ext_generic(a2, 1, 2, (0, 1), (1, 1)) == 0


class TestSchurRoots:
    def test_units(self, a2, b2, kronecker):
        for datum in (a2, b2, kronecker):
            for i in range(2):
                est = gendecomp.is_schur_root(datum, 1, 2,
                                              RankVector.unit(2, i))
                assert est.is_schur

    @pytest.mark.parametrize("p", [2, 3])
    def test_a2_rank11(self, a2, p):
        est = gendecomp.is_schur_root(a2, 1, p, (1, 1))
        assert est.is_schur
        assert est.exhaustive
        assert est.rate == pytest.approx((p - 1) / p)

    def test_no_arrows_rank11_not_schur(self, no_arrows):
        est = gendecomp.is_schur_root(no_arrows, 1, 2, (1, 1))
        assert not est.is_schur
        assert est.blocking_split is not None

    def test_kronecker_21_schur(self, kronecker):
        # dense indecomposable locus despite a minority of F_2 points
        est = gendecomp.is_schur_root(kronecker, 1, 2, (2, 1))
        assert est.is_schur
        assert est.rate < 0.5

    def test_zero_rank(self, a2):
        assert not gendecomp.is_schur_root(a2, 1, 2, (0, 0)).is_schur


class TestCanonicalDecomposition:
    @pytest.mark.parametrize("k", [1, 2])
    def test_a2_rank11(self, a2, k):
        rep = gendecomp.canonical_decomposition(a2, k, 2, (1, 1), seed=0)
        assert rep.parts == ((1, 1),)
        assert rep.exhaustive and rep.criteria_ok

    def test_no_arrows_splits_into_units(self, no_arrows):
        rep = gendecomp.canonical_decomposition(no_arrows, 1, 2, (2, 1),
                                                seed=1)
        assert rep.parts == ((0, 1), (1, 0), (1, 0))
        assert rep.criteria_ok

    @pytest.mark.parametrize("r", [(2, 1), (1, 2)])
    def test_kronecker_k_independent(self, kronecker, r):
        r1 = gendecomp.canonical_decomposition(kronecker, 1, 2, r, seed=2)
        r2 = gendecomp.canonical_decomposition(kronecker, 2, 2, r, seed=2)
        assert r1.parts == r2.parts == (r,)
        assert r1.criteria_ok and r2.criteria_ok

    def test_empty_rank(self, a2):
        rep = gendecomp.canonical_decomposition(a2, 1, 2, (0, 0))
        assert rep.parts == ()

    def test_parts_sum(self, a2, b2, kronecker):
        for datum in (a2, b2, kronecker):
            for r in [(1, 1), (2, 1), (1, 2)]:
                rep = gendecomp.canonical_decomposition(datum, 1, 2, r,
                                                        seed=3)
                total = RankVector.zero(2)
                for part in rep.parts:
                    total = total + RankVector(part)
                assert total == RankVector(r)

    def test_report_serializes(self, a2):
        import json

        rep = gendecomp.canonical_decomposition(a2, 1, 2, (1, 1), seed=0)
        text = json.dumps(rep.to_dict())
        assert "parts" in json.loads(text)


class TestKIndependence:
    def test_a2_sweep(self, a2):
        for r in [(1, 1), (2, 1), (1, 2)]:
            rep = gendecomp.k_independence_check(a2, 2, r, k_max=3, seed=0)
            assert rep.agree

    def test_unit_rank_stable(self, b2):
        rep = gendecomp.k_independence_check(b2, 3, (1, 0), k_max=3, seed=0)
        assert rep.agree
        assert all(r.parts == ((1, 0),) for r in rep.reports)

    def test_no_arrows_stable(self, no_arrows):
        rep = gendecomp.k_independence_check(no_arrows, 2, (1, 1), k_max=2,
                                             seed=0)
        assert rep.agree
        assert rep.reports[0].parts == ((0, 1), (1, 0))


class TestCrossKExtAndSchur:
    @pytest.mark.parametrize("r,s", [((1, 0), (0, 1)), ((0, 1), (1, 0)),
                                     ((1, 1), (0, 1)), ((1, 1), (1, 0))])
    def test_ext_vanishing_same_across_k(self, a2, b2, r, s):
        for datum in (a2, b2):
            v1 = gendecomp.ext_generic(datum, 1, 2, r, s)
            v2 = gendecomp.ext_generic(datum, 2, 2, r, s)
            assert (v1 == 0) == (v2 == 0)

    @pytest.mark.parametrize("r", [(1, 0), (1, 1), (2, 1), (1, 2)])
    def test_schur_same_across_k(self, a2, kronecker, r):
        for datum in (a2, kronecker):
            s1 = gendecomp.is_schur_root(datum, 1, 2, r).is_schur
            s2 = gendecomp.is_schur_root(datum, 2, 2, r).is_schur
            assert s1 == s2
