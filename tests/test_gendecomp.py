import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanquiver import exactlinalg as la
from cartanquiver import gendecomp, hmod, homext
from cartanquiver.cartan import RankVector
from cartanquiver.errors import InternalCheckError

from conftest import (
    make_datum,
    n_module,
    reference_fitting_search,
    reference_iter_structure_matrices,
    reference_schur_scan,
)


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

    def test_cubed_sum_never_raises(self, a2):
        # P^3 + E_1^3 + E_2^3 at k = 1 over F_2 (dim End 45, past the
        # exhaustive isomorphism budget): before, an uncertain "no" for the
        # rebuilt sum raised InternalCheckError for 53 of these seeds
        p = hmod.from_structure_matrices(hmod.structure_from_arrays(
            a2, 1, 2, (1, 1), {(0, 1): np.array([[1]])}))
        e1 = hmod.free_module(a2, 1, 2, (1, 0))
        e2 = hmod.free_module(a2, 1, 2, (0, 1))
        m = functools.reduce(hmod.direct_sum, [p] * 3 + [e1] * 3 + [e2] * 3)
        want = ((0, 1),) * 3 + ((1, 0),) * 3 + ((1, 1),) * 3
        for seed in range(200):
            assert gendecomp.krull_schmidt(m, seed=seed).rank_multiset() \
                == want, seed


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
        # E_1 at k=1: End = F_p[x]/(x^2), local, so E_1 is indecomposable
        # by proof at any budget, and End(E_1) is never solved for
        m = hmod.free_module(b2, 1, 2, (1, 0))
        assert homext.hom_space(m, m).dim == 2
        assert gendecomp.is_indecomposable(m).certainty == \
            gendecomp.EXHAUSTIVE
        monkeypatch.setattr(gendecomp, "IDEMPOTENT_BUDGET", 1)
        solved = []
        original = homext.hom_space
        monkeypatch.setattr(homext, "hom_space",
                            lambda a, b: solved.append(a) or original(a, b))
        res = gendecomp.is_indecomposable(m)
        assert res and res.certainty == gendecomp.EXHAUSTIVE
        ks = gendecomp.krull_schmidt(m)
        assert ks.rank_multiset() == ((1, 0),)
        assert ks.certainty == gendecomp.EXHAUSTIVE
        assert solved == []

    @pytest.mark.parametrize("name", ["a2", "b2"])
    def test_over_budget_indecomposable(self, request, monkeypatch, name):
        # an indecomposable of rank (1, 1) has two non-zero vertices, so
        # its End is searched: past the budget a positive answer rests on
        # the random trials alone
        datum = request.getfixturevalue(name)
        m = next(mod for mod in map(hmod.from_structure_matrices,
                                    hmod.iter_structure_matrices(
                                        datum, 1, 2, (1, 1)))
                 if not _has_proper_idempotent(mod))
        assert not gendecomp._local_end(m)
        assert gendecomp.is_indecomposable(m).certainty == \
            gendecomp.EXHAUSTIVE
        monkeypatch.setattr(gendecomp, "IDEMPOTENT_BUDGET", 1)
        res = gendecomp.is_indecomposable(m)
        assert res and res.certainty == gendecomp.MONTE_CARLO
        ks = gendecomp.krull_schmidt(m)
        assert ks.rank_multiset() == ((1, 1),)
        assert ks.certainty == gendecomp.MONTE_CARLO


def reference_structure_constants(basis, p):
    """The multiplication table of End(M) one product at a time: entry
    [a, b] holds the coordinates of element a after element b."""
    dim = basis.dim
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    for a in range(dim):
        for b in range(dim):
            table[a, b] = basis.coords_of(homext.compose(
                basis.elements[a], basis.elements[b], p))
    return table


def test_structure_constants_match_products(modules):
    """All products composed at once on stacks give the table of the
    product-by-product loop, on standard and scrambled modules."""
    dims = set()
    for m in modules:
        basis = homext.hom_space(m, m)
        got = gendecomp._structure_constants(basis, m.p)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_structure_constants(basis,
                                                                 m.p))
        dims.add(basis.dim)
    assert max(dims) >= 6


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


# --- the stacked Fitting search -----------------------------------------------

FITTING_DATA = {
    "a2": ([[2, -1], [-1, 2]], [1, 1], [(0, 1)]),
    "b2": ([[2, -1], [-2, 2]], [2, 1], [(0, 1)]),
    "b2_rev": ([[2, -1], [-2, 2]], [2, 1], [(1, 0)]),
    "kronecker": ([[2, -2], [-2, 2]], [1, 1], [(0, 1)]),
}
UNIT_RANKS = [(1, 0), (0, 1), (1, 1)]


@st.composite
def fitting_cases(draw):
    """A direct sum of one or two random modules (so that splits exist),
    with End basis elements, random endomorphisms, central units plus
    nilpotents, per-vertex projections and arbitrary per-vertex matrices
    as candidates, in a drawn order, and all shifts or a drawn list."""
    datum = make_datum(*FITTING_DATA[draw(st.sampled_from(
        sorted(FITTING_DATA)))])
    k = draw(st.integers(1, 2))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    ranks = draw(st.lists(st.sampled_from(UNIT_RANKS), min_size=1,
                          max_size=2))
    m = hmod.random_locally_free(datum, k, p, ranks[0], seed=(seed, 0))
    for t, r in enumerate(ranks[1:], 1):
        m = hmod.direct_sum(m, hmod.random_locally_free(datum, k, p, r,
                                                        seed=(seed, t)))
    basis = homext.hom_space(m, m)
    eps = hmod.epsilon_blocks(m)
    pool = list(basis.elements)
    pool += [basis.element_from_coeffs(rng.integers(0, p, size=basis.dim))
             for _ in range(3)]
    pool += [tuple((lam * la.identity(d) + c * e) % p
                   for d, e in zip(m.dims, eps))
             for lam, c in rng.integers(0, p, size=(2, 2))]
    pool += [tuple(la.identity(d) * (i == v) for i, d in enumerate(m.dims))
             for v in range(m.n)]
    pool += [tuple(rng.integers(0, p, size=(d, d)) for d in m.dims)]
    order = draw(st.permutations(range(len(pool))))
    candidates = [pool[i] for i in order[:draw(st.integers(1, len(pool)))]]
    shifts = draw(st.one_of(
        st.just(range(p)),
        st.lists(st.integers(0, p - 1), min_size=1, max_size=8)))
    return m, candidates, shifts


@settings(max_examples=120, deadline=None)
@given(fitting_cases())
def test_stacked_search_matches_reference(case):
    """The first split of the stacked search, with its nilpotent rule-out,
    is the first split of the candidate-by-candidate loop: the same
    (ims, kers), or None from both."""
    m, candidates, shifts = case
    got = gendecomp._fitting_search(m, candidates, shifts)
    want = reference_fitting_search(m, candidates, shifts)
    assert got == want


@pytest.mark.parametrize("bad", [0, 1])
def test_fitting_split_checks_each_vertex(a2, bad):
    """Powers whose image and kernel meet at one vertex (a non-zero square-
    zero block) raise there; powers that split every vertex pass."""
    m = hmod.random_locally_free(a2, 2, 2, (1, 1), seed=0)
    assert m.dims == (2, 2)
    one, zero = la.identity(2), la.zeros(2, 2)
    ims, kers = gendecomp._fitting_split(m, [one, zero])
    assert [u.dim for u in ims] == [2, 0] and [v.dim for v in kers] == [0, 2]
    powers = [one, one]
    powers[bad] = np.array([[0, 1], [0, 0]])
    with pytest.raises(InternalCheckError,
                       match=f"not complementary at vertex {bad + 1}$"):
        gendecomp._fitting_split(m, powers)


def test_one_power_per_vertex_and_no_rank_for_ruled_out(kronecker,
                                                        monkeypatch):
    """Each candidate costs one stacked matpow per vertex; a candidate with
    a nilpotent shift (here lam + c * eps, eps central and nilpotent) gets
    no rank at all."""
    m = hmod.direct_sum(hmod.random_locally_free(kronecker, 2, 3, (1, 1), 1),
                        hmod.random_locally_free(kronecker, 2, 3, (1, 0), 2))
    eps = hmod.epsilon_blocks(m)
    candidates = [tuple((lam * la.identity(d) + c * e) % 3
                        for d, e in zip(m.dims, eps))
                  for lam, c in itertools.product(range(3), repeat=2)]
    calls = {"matpow": 0, "rank": 0}
    for name in calls:
        original = getattr(la, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(la, name, counted)
    assert gendecomp._fitting_search(m, candidates, range(3)) is None
    assert calls == {"matpow": len(candidates) * m.n, "rank": 0}


# --- the local-End rule ------------------------------------------------------

ONE_VERTEX_DATA = {**FITTING_DATA,
                   "g2": ([[2, -3], [-1, 2]], [1, 3], [(0, 1)])}


@st.composite
def one_vertex_modules(draw):
    """A module with one non-zero vertex v, whose loop has nilpotent Jordan
    blocks of the drawn sizes (at most k*c_v), in standard form or
    conjugated by a random change of basis: one full block (free), one
    block of any size (cyclic, not free when shorter), or two blocks
    (not cyclic).  p is drawn so that End(M) has at most 2^12 elements."""
    datum = make_datum(*ONE_VERTEX_DATA[draw(st.sampled_from(
        sorted(ONE_VERTEX_DATA)))])
    k = draw(st.integers(1, 3))
    v = draw(st.integers(0, 1))
    order = k * datum.d[v]
    shape = draw(st.sampled_from(["free", "cyclic", "not cyclic"]))
    if shape == "free":
        blocks = [order]
    elif shape == "cyclic":
        blocks = [draw(st.integers(1, order))]
    else:
        blocks = draw(st.lists(st.integers(1, min(order, 3)), min_size=2,
                               max_size=2))
    end_dim = sum(min(a, b) for a in blocks for b in blocks)
    p = draw(st.sampled_from([q for q in (2, 3, 5)
                              if q ** end_dim <= 2 ** 12]))
    d = sum(blocks)
    loop = la.zeros(d, d)
    start = 0
    for size in blocks:
        for t in range(start, start + size - 1):
            loop[t + 1, t] = 1
        start += size
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        while True:
            t = rng.integers(0, p, size=(d, d))
            if la.rank(t, p) == d:
                break
        loop = (la.inv(t, p) @ loop @ t) % p
    eps = [loop if i == v else la.zeros(0, 0) for i in range(datum.n)]
    return hmod.make_module(datum, k, p, eps, {}), blocks


@settings(max_examples=150, deadline=None)
@given(one_vertex_modules(), st.integers(0, 2 ** 16))
def test_local_end_rule_matches_brute_force(case, seed):
    """On one-vertex modules the verdict equals the idempotent brute
    force; a single Jordan block is decided without solving for End(M),
    and a loop with two blocks still goes through the search and splits
    into its blocks."""
    m, blocks = case
    cyclic = len(blocks) == 1
    assert _has_proper_idempotent(m) != cyclic
    assert gendecomp._local_end(m) == cyclic
    solved = []
    original = homext.hom_space

    def recording(a, b):
        solved.append(a)
        return original(a, b)

    with mock.patch.object(homext, "hom_space", recording):
        res = gendecomp.is_indecomposable(m, seed=seed)
        assert bool(res) == cyclic
        assert res.certainty == gendecomp.EXHAUSTIVE
        assert bool(solved) != cyclic
        ks = gendecomp.krull_schmidt(m, seed=seed)
    assert ks.certainty == gendecomp.EXHAUSTIVE
    assert sorted(part.total_dim() for part, mult in ks.parts
                  for _ in range(mult)) == sorted(blocks)


# --- one generic-Ext table per decomposition ----------------------------------

def _unshared(monkeypatch):
    """Every Ext question goes to ext_generic, as if nothing were shared."""
    def ask(self, r, s, seed):
        return gendecomp.ext_generic(self.datum, self.k, self.p, r, s,
                                     samples=self.samples, seed=seed)

    monkeypatch.setattr(gendecomp._CallTable, "ext", ask)


def _schur_fields(est):
    return (est.is_schur, est.rate, est.samples, est.exhaustive,
            est.certainty, est.blocking_split)


SMALL_RANKS = [(0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2),
               (3, 0), (0, 3)]
# (datum, k, p): every rank of total <= 3 whose structure space has at
# most 2^6 points
REPORT_LEVELS = [("a2", 1, 2), ("a2", 2, 2), ("a2", 1, 3), ("b2", 1, 2),
                 ("b2_rev", 1, 2), ("kronecker", 1, 2)]


def _reports(datum, k, p, r, samples, seed):
    return (gendecomp.canonical_decomposition(datum, k, p, r, samples,
                                              seed).to_dict(),
            _schur_fields(gendecomp.is_schur_root(datum, k, p, r, samples,
                                                  seed)),
            gendecomp.k_independence_check(datum, p, r, k, samples,
                                           seed).to_dict())


@pytest.mark.parametrize("name,k,p", REPORT_LEVELS)
def test_shared_table_reports_match_unshared(request, monkeypatch, name, k,
                                             p):
    """canonical_decomposition, is_schur_root and k_independence_check
    report exactly what they report when every Ext question is asked
    anew: parts, samples, rates, ext_min, certainty and criteria_ok."""
    datum = request.getfixturevalue(name)
    ranks = [r for r in SMALL_RANKS
             if p ** hmod.structure_parameter_count(datum, k, r) <= 2 ** 6]
    shared = [_reports(datum, k, p, r, 5, (name, r)) for r in ranks]
    _unshared(monkeypatch)
    assert shared == [_reports(datum, k, p, r, 5, (name, r)) for r in ranks]


@pytest.mark.parametrize("name,r", [("kronecker", (2, 1)), ("a2", (1, 2)),
                                    ("b2", (2, 1))])
def test_sampled_pairs_keep_their_seeds(request, monkeypatch, name, r):
    """With PAIR_SPACE_BUDGET lowered every pair with parameters is
    sampled; the reports still match the unshared run, so a sampled pair
    is never answered from another seed's question."""
    datum = request.getfixturevalue(name)
    monkeypatch.setattr(gendecomp, "PAIR_SPACE_BUDGET", 1)
    shared = [_reports(datum, 1, 3, r, 2, seed) for seed in range(4)]
    _unshared(monkeypatch)
    assert shared == [_reports(datum, 1, 3, r, 2, seed) for seed in range(4)]


def test_exhaustive_pairs_asked_once_per_call(kronecker, monkeypatch):
    """Within one canonical_decomposition every exhaustive pair goes to
    ext_generic once; a second call asks the same questions again, since
    the table lives for one call only."""
    asked = []
    original = gendecomp.ext_generic

    def recording(datum, k, p, r, s, samples, seed):
        asked.append((tuple(r), tuple(s)))
        return original(datum, k, p, r, s, samples=samples, seed=seed)

    monkeypatch.setattr(gendecomp, "ext_generic", recording)
    gendecomp.canonical_decomposition(kronecker, 1, 2, (2, 1), seed=3)
    first = list(asked)
    assert first and len(set(first)) == len(first)
    asked.clear()
    gendecomp.canonical_decomposition(kronecker, 1, 2, (2, 1), seed=4)
    assert asked == first


# --- one census per decomposition ---------------------------------------------

def _record_rank_r_decisions(monkeypatch, r) -> list:
    """Wrap is_indecomposable to record the seed of every module of rank r
    it decides."""
    seeds = []
    original = gendecomp.is_indecomposable

    def recording(m, seed=0):
        if tuple(hmod.rank_vector(m)) == tuple(r):
            seeds.append(seed)
        return original(m, seed=seed)

    monkeypatch.setattr(gendecomp, "is_indecomposable", recording)
    return seeds


def _seed_dependent_points(datum, k, p, r) -> list:
    """The scan indices of the structure points of r whose split verdict
    depends on the seed."""
    return [t for t, s in enumerate(
        reference_iter_structure_matrices(datum, k, p, r))
        if not gendecomp._find_split(hmod.from_structure_matrices(s), 0)[2]]


# the levels of REPORT_LEVELS over F_11, where shifts are drawn at random
P11_LEVELS = [("a2", 1, 11), ("a2", 2, 11), ("b2", 1, 11),
              ("kronecker", 1, 11)]


@pytest.mark.parametrize("budget", ["default", "p"])
@pytest.mark.parametrize("name,k,p", REPORT_LEVELS + P11_LEVELS)
def test_schur_evidence_of_r_matches_rescan(request, monkeypatch, name, k,
                                            p, budget):
    """The Schur evidence of the part equal to r (rate, samples,
    exhaustive, certainty) is the indecomposability scan of is_schur_root
    with the seed (seed, "schur", r), read off the Krull-Schmidt census
    where a verdict is seed-free and rescanned where it is not.  With
    IDEMPOTENT_BUDGET lowered to p the decomposables with dim End >= 2
    are past the budget, so their verdicts depend on the seed: exactly
    those points are decided again, each with its seed of the scan."""
    datum = request.getfixturevalue(name)
    if budget == "p":
        monkeypatch.setattr(gendecomp, "IDEMPOTENT_BUDGET", p)
    ranks = [r for r in SMALL_RANKS
             if p ** hmod.structure_parameter_count(datum, k, r) <= 2 ** 7]
    estimates = []
    original = gendecomp._schur_root

    def recording(table, r, seed, census=None):
        est = original(table, r, seed, census)
        estimates.append((tuple(r), seed, est))
        return est

    monkeypatch.setattr(gendecomp, "_schur_root", recording)
    paths = set()
    for r in ranks:
        seed = (name, r)
        decided = _record_rank_r_decisions(monkeypatch, r)
        estimates.clear()
        rep = gendecomp.canonical_decomposition(datum, k, p, r, 5, seed)
        rescanned = list(decided)
        own = [est for part, _, est in estimates if part == r]
        assert [s for part, s, _ in estimates if part == r] == \
            [(seed, "schur", r)] * len(own)
        if not own:
            continue
        paths.add("rescan" if rescanned else "census")
        hits, count, exhaustive, certainty = reference_schur_scan(
            datum, k, p, r, 5, (seed, "schur", r),
            hmod.STRUCTURE_SPACE_BUDGET)
        # a rescan decides the points with a seed-dependent verdict only,
        # with their seeds of the scan
        assert rescanned == [((seed, "schur", r), t) for t in
                             _seed_dependent_points(datum, k, p, r)]
        (est,) = own
        assert (est.rate, est.samples, est.exhaustive, est.certainty) == (
            hits / max(count, 1), count, exhaustive, certainty)
        for check in rep.schur_checks:
            if check["part"] == r:
                assert (check["rate"], check["exhaustive"]) == (
                    hits / max(count, 1), exhaustive)
    assert ("census" if budget == "default" else "rescan") in paths


@pytest.mark.parametrize("name,k,r", [("a2", 1, (1, 1)), ("a2", 2, (1, 1)),
                                      ("kronecker", 1, (2, 1)),
                                      ("b2", 1, (1, 1))])
def test_seed_free_scan_decides_r_once(request, monkeypatch, name, k, r):
    """When every module of the exhaustive scan has a seed-free verdict,
    no module of rank r is handed to is_indecomposable: the Schur
    evidence of r is the Krull-Schmidt census of the same call."""
    datum = request.getfixturevalue(name)
    decided = _record_rank_r_decisions(monkeypatch, r)
    rep = gendecomp.canonical_decomposition(datum, k, 2, r, seed=1)
    assert rep.exhaustive and rep.parts == (r,)
    assert [c["part"] for c in rep.schur_checks] == [r]
    assert decided == []


# --- one table per decomposition call -----------------------------------------

def _matrices(m) -> tuple:
    return m.dims, tuple(a.tobytes() for _, a, _, _ in m.maps_with_labels())


def _record_builds(monkeypatch) -> list:
    """Wrap hmod.from_structure_matrices to record every point it
    expands."""
    built = []
    original = hmod.from_structure_matrices

    def recording(sm):
        built.append((tuple(sm.rank), tuple(sm.mats[key].tobytes()
                                            for key in sorted(sm.mats))))
        return original(sm)

    monkeypatch.setattr(hmod, "from_structure_matrices", recording)
    return built


# every pair of ranks these calls ask about is scanned exhaustively
SHARED_SPACES = [("a2", 1, 2, (2, 1)), ("a2", 2, 2, (1, 2)),
                 ("a2", 1, 3, (2, 1)), ("b2", 1, 2, (1, 2)),
                 ("kronecker", 1, 2, (2, 1)), ("kronecker", 1, 3, (1, 1))]


@pytest.mark.parametrize("name,k,p,r", SHARED_SPACES)
def test_each_structure_point_built_once_per_call(request, monkeypatch,
                                                  name, k, p, r):
    """Within one canonical_decomposition or is_schur_root call every
    point of an exhaustive structure space is expanded once: the
    Krull-Schmidt scan, the Ext scans and the Schur scans share the
    modules.  The table goes with the call, so a second call expands the
    same points again."""
    datum = request.getfixturevalue(name)
    built = _record_builds(monkeypatch)
    for call in (gendecomp.canonical_decomposition, gendecomp.is_schur_root):
        built.clear()
        call(datum, k, p, r, seed=1)
        first = list(built)
        assert first and len(set(first)) == len(first)
        assert gendecomp._CALL.get() is None
        built.clear()
        call(datum, k, p, r, seed=2)
        assert built == first


@pytest.mark.parametrize("name,k,p,r", SHARED_SPACES)
def test_no_module_solved_for_its_end_twice_per_call(request, monkeypatch,
                                                     name, k, p, r):
    """Within one canonical_decomposition no module content reaches
    hom_space(m, m) twice: a Krull-Schmidt piece or a structure point
    equal to a piece decided before in the call reuses its verdict."""
    datum = request.getfixturevalue(name)
    ends = []
    original = homext.hom_space

    def recording(a, b, *args, **kwargs):
        if a is b:
            ends.append(_matrices(a))
        return original(a, b, *args, **kwargs)

    monkeypatch.setattr(homext, "hom_space", recording)
    gendecomp.canonical_decomposition(datum, k, p, r, seed=3)
    assert ends and len(set(ends)) == len(ends)


def test_table_is_dropped_when_a_call_raises(a2, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("stop")

    monkeypatch.setattr(gendecomp, "krull_schmidt", failing)
    with pytest.raises(RuntimeError):
        gendecomp.canonical_decomposition(a2, 1, 2, (1, 1))
    assert gendecomp._CALL.get() is None


@pytest.mark.parametrize("name,k,p,r", [("a2", 1, 3, (1, 1)),
                                        ("b2", 1, 3, (1, 1)),
                                        ("kronecker", 1, 3, (2, 1))])
def test_rescan_builds_only_undecided_points(request, monkeypatch, name, k,
                                             p, r):
    """With no space shared (PAIR_SPACE_BUDGET = 1) and IDEMPOTENT_BUDGET
    lowered to p, the Schur evidence of r expands only the points whose
    verdict depends on the seed, once more each, on top of the
    Krull-Schmidt scan."""
    datum = request.getfixturevalue(name)
    monkeypatch.setattr(gendecomp, "IDEMPOTENT_BUDGET", p)
    monkeypatch.setattr(gendecomp, "PAIR_SPACE_BUDGET", 1)
    dependent = _seed_dependent_points(datum, k, p, r)
    size = p ** hmod.structure_parameter_count(datum, k, r)
    assert 0 < len(dependent) < size
    built = _record_builds(monkeypatch)
    rep = gendecomp.canonical_decomposition(datum, k, p, r, 5, seed=4)
    assert r in [c["part"] for c in rep.schur_checks]
    of_r = [b for b in built if b[0] == r]
    assert len(set(of_r[:size])) == size
    assert of_r[size:] == [of_r[t] for t in dependent]


@pytest.mark.parametrize("scan", ["exhaustive", "sampled"])
@pytest.mark.parametrize("name,k,p", REPORT_LEVELS + P11_LEVELS)
def test_report_checks_match_public_answers(request, monkeypatch, name, k,
                                            p, scan):
    """Each schur_checks entry of a report is is_schur_root of its part
    with the seed (seed, "schur", part), and each ext_checks entry is
    ext_generic of its pair with the seed (seed, "ext", from, to): sharing
    spaces, verdicts and Ext answers inside the call changes no answer.
    With both space budgets lowered to 1 every scan with parameters is
    sampled."""
    datum = request.getfixturevalue(name)
    if scan == "sampled":
        monkeypatch.setattr(hmod, "STRUCTURE_SPACE_BUDGET", 1)
        monkeypatch.setattr(gendecomp, "PAIR_SPACE_BUDGET", 1)
    samples = 5
    ranks = [r for r in SMALL_RANKS
             if p ** hmod.structure_parameter_count(datum, k, r) <= 2 ** 7]
    for r in ranks:
        seed = (name, r)
        rep = gendecomp.canonical_decomposition(datum, k, p, r, samples,
                                                seed)
        for check in rep.schur_checks:
            part = check["part"]
            est = gendecomp.is_schur_root(datum, k, p, part, samples,
                                          (seed, "schur", part))
            assert (check["is_schur"], check["rate"], check["exhaustive"]) \
                == (est.is_schur, est.rate, est.exhaustive), (r, part)
        for check in rep.ext_checks:
            a, b = check["from"], check["to"]
            assert check["ext_min"] == gendecomp.ext_generic(
                datum, k, p, a, b, samples, (seed, "ext", a, b)), (r, a, b)


@pytest.mark.parametrize("name,k,p,r,budget", [
    ("kronecker", 1, 2, (2, 2), None), ("kronecker", 1, 2, (2, 2), 1),
    ("a2", 1, 11, (2, 1), None), ("b2", 1, 3, (2, 1), None)])
def test_table_keeps_only_seed_free_splits(request, monkeypatch, name, k, p,
                                           r, budget):
    """The split verdicts a decomposition call keeps are the same for
    every seed: each came out of a completed search within
    IDEMPOTENT_BUDGET, and over F_11, where the shifts are drawn at random,
    only a verdict with no split is kept."""
    datum = request.getfixturevalue(name)
    if budget is not None:
        monkeypatch.setattr(gendecomp, "IDEMPOTENT_BUDGET", budget)
    tables = []
    original = gendecomp._decompose

    def recording(table, r, seed):
        tables.append(table)
        return original(table, r, seed)

    monkeypatch.setattr(gendecomp, "_decompose", recording)
    gendecomp.canonical_decomposition(datum, k, p, r, seed=6)
    (table,) = tables
    assert bool(table.splits) == (budget is None)
    for split, certainty, seed_free in table.splits.values():
        assert seed_free and certainty == gendecomp.EXHAUSTIVE
        assert p <= gendecomp.ALL_SHIFTS or split is None
