import itertools
import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanquiver import exactlinalg as la
from cartanquiver import flagvar, hmod, homext
from cartanquiver.cartan import RankVector
from cartanquiver.errors import (
    EntryDegreeOverflow,
    ModulusTooLarge,
    NotInvariant,
    NotLocallyFree,
    RelationBrokenAtPrime,
    RelationH1Violated,
    RelationH2Violated,
    ShapeMismatch,
    ValidationError,
)
from cartanquiver.exactlinalg import Subspace

from conftest import (
    MALFORMED_MODULE_FILES,
    dims_eps_file,
    golden_module,
    make_datum,
    n_module,
    reference_not_free_at,
    reference_submodule,
    scrambled,
    unitriangular_conjugate,
)

LOOP_DATA = [([[2, -1], [-1, 2]], [1, 1], [(0, 1)]),
             ([[2, -1], [-2, 2]], [2, 1], [(0, 1)]),
             ([[2, -1], [-2, 2]], [2, 1], [(1, 0)]),
             ([[2, -3], [-1, 2]], [1, 3], [(0, 1)])]


@st.composite
def loop_modules(draw):
    """A module with zero arrows whose loop at each vertex has nilpotent
    Jordan blocks of drawn sizes up to the loop order, laid out generator
    by generator (standard when every block has full size), then changed
    by a unitriangular basis change at drawn vertices."""
    datum = make_datum(*draw(st.sampled_from(LOOP_DATA)))
    k = draw(st.integers(1, 2))
    p = draw(st.sampled_from([2, 3, 5]))
    eps = []
    for i in range(datum.n):
        order = k * datum.d[i]
        sizes = draw(st.lists(st.integers(1, order), max_size=3))
        eps.append(la.block_diag(
            la.zeros(0, 0), *(hmod._standard_loop(s, 1) for s in sizes)))
    m = hmod.make_module(datum, k, p, eps, {})
    vertices = draw(st.sets(st.sampled_from(range(datum.n))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return unitriangular_conjugate(m, vertices, rng)


class TestValidation:
    def test_free_module_validates(self, a2, b2, kronecker):
        for datum in (a2, b2, kronecker):
            for k in (1, 2, 3):
                m = hmod.free_module(datum, k, 5, (2, 1))
                hmod.validate_module(m)

    def test_h1_violation(self, a2):
        eps = [np.array([[1]]), np.array([[0]])]
        with pytest.raises(RelationH1Violated):
            hmod.make_module(a2, 1, 5, eps, {})

    def test_h2_violation(self, a2):
        # zero loop at the target, regular nilpotent at the source, and a
        # map that does not intertwine them
        eps = [la.zeros(2, 2), np.array([[0, 0], [1, 0]])]
        arrows = {(0, 1): [np.array([[1, 0], [0, 1]])]}
        with pytest.raises(RelationH2Violated):
            hmod.make_module(a2, 2, 5, eps, arrows)
        with pytest.raises(RelationH2Violated):
            hmod.validate_module(hmod.HModule(
                a2, 2, 5, (2, 2), tuple(eps),
                {(0, 1): tuple(arrows[(0, 1)])}))

    def test_every_construction_validates(self, a2):
        eps = [la.zeros(2, 2), np.array([[0, 0], [1, 0]])]
        bad = hmod.HModule(a2, 2, 5, (2, 2), tuple(eps),
                           {(0, 1): (la.identity(2),)})
        good = hmod.free_module(a2, 2, 5, (1, 1))
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(RelationH2Violated):
                hmod.direct_sum(a, b)

    @pytest.mark.parametrize("loops", [1, 3])
    def test_wrong_number_of_loops(self, a2, loops):
        # A2 has two vertices: one loop used to raise IndexError, three
        # built a module with dims (1, 1, 1)
        with pytest.raises(ShapeMismatch, match="loop matrices"):
            hmod.make_module(a2, 1, 5, [la.zeros(1, 1)] * loops, {})

    @pytest.mark.parametrize("keyword", ["standard_form", "lift",
                                         "validate"])
    def test_removed_make_module_keywords(self, a2, keyword):
        eps = [la.zeros(1, 1)] * 2
        with pytest.raises(TypeError, match=keyword):
            hmod.make_module(a2, 1, 5, eps, {}, **{keyword: None})

    @pytest.mark.parametrize("keyword", ["standard_form", "lift"])
    def test_removed_module_fields(self, a2, keyword):
        m = hmod.free_module(a2, 1, 5, (1, 1))
        with pytest.raises(TypeError, match=keyword):
            hmod.HModule(m.datum, m.k, m.p, m.dims, m.eps, m.arrows,
                         **{keyword: None})
        assert [f.name for f in fields(hmod.HModule)] == [
            "datum", "k", "p", "dims", "eps", "arrows"]

    def test_golden_module_validates(self, a2):
        m = golden_module(a2, 2, 5)
        hmod.validate_module(m)
        assert hmod.is_locally_free(m)
        assert hmod.rank_vector(m) == (1, 1)

    def test_module_cannot_be_changed(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (2, 1), seed=3)
        key = next(iter(m.arrows))
        with pytest.raises(TypeError):
            m.arrows[key] = m.arrows[key]
        with pytest.raises(TypeError):
            del m.arrows[key]
        with pytest.raises(ValueError):
            m.arrows[key][0][0, 0] = 1
        with pytest.raises(ValueError):
            m.eps[0][0, 0] = 1
        # copies and serialization read the read-only mapping as before
        copy = replace(m, k=m.k)
        assert copy.arrows is m.arrows and hmod.modules_equal(copy, m)
        back = hmod.module_from_dict(b2, hmod.module_to_dict(m))
        assert hmod.modules_equal(back, m)


class TestLocalFreeness:
    def test_free_modules(self, b2):
        for k in (1, 2):
            m = hmod.free_module(b2, k, 3, (1, 2))
            assert hmod.is_locally_free(m)
            assert hmod.rank_vector(m) == (1, 2)

    def test_simple_not_free(self, a2):
        # one-dimensional space at a vertex with loop order 2
        eps = [la.zeros(1, 1), la.zeros(0, 0)]
        m = hmod.make_module(a2, 2, 5, eps, {})
        assert not hmod.is_locally_free(m)
        with pytest.raises(NotLocallyFree):
            hmod.rank_vector(m)

    def test_loops_read_once_per_module(self, b2, monkeypatch):
        """Standard form, local freeness, the rank vector and the local-End
        test read one Jordan test per loop, kept by the module; another
        module, even one with the same matrices, reads its own."""
        from cartanquiver import gendecomp

        calls = []
        original = hmod._jordan_order
        monkeypatch.setattr(hmod, "_jordan_order",
                            lambda x: calls.append(x) or original(x))
        m = hmod.free_module(b2, 2, 3, (1, 0))
        for _ in range(2):
            assert m.standard_form and hmod.is_locally_free(m)
            assert hmod.rank_vector(m) == (1, 0)
            assert gendecomp._local_end(m)
        assert m.jordan_orders == (4, 0)
        assert len(calls) == m.n
        copy = replace(m, k=m.k)
        assert copy.standard_form and len(calls) == 2 * m.n

    def test_golden_rank(self, a2):
        e2 = hmod.free_module(a2, 2, 5, (0, 1))
        assert hmod.rank_vector(e2) == (0, 1)

    @settings(max_examples=300, deadline=None)
    @given(loop_modules())
    def test_jordan_loops_need_no_elimination(self, m):
        """The verdict equals an elimination at every vertex, and only the
        non-empty loops that are not the standard Jordan matrix of full
        order are eliminated."""
        ranks = []
        original = la.rank
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(la, "rank",
                       lambda a, p: ranks.append(a) or original(a, p))
            got = hmod._not_free_at(m)
        want = reference_not_free_at(m)
        assert got == want
        eliminated = [e for i, e in enumerate(m.eps) if e.size
                      and hmod._jordan_order(e) != m.loop_order(i)]
        assert all(a is b for a, b in zip(ranks, eliminated))
        assert (len(ranks) == len(eliminated) if want is None
                else len(ranks) <= len(eliminated))

    @settings(max_examples=200, deadline=None)
    @given(loop_modules())
    def test_flag_check_freeness_matches_reference(self, m):
        """The flag check's freeness test on a layer equals
        reference_not_free_at on the module the layer carries, ranking
        only non-empty loops that are not standard.  The layer is n in
        n + E, where n is m with zero loops added so that each loop order
        divides its dim, and E is free of rank dims(n) / loop orders."""
        orders = [m.loop_order(i) for i in range(m.n)]
        pad = hmod.make_module(m.datum, m.k, m.p, [
            la.zeros(-d % o, -d % o) for d, o in zip(m.dims, orders)], {})
        n = hmod.direct_sum(m, pad)
        r = RankVector(d // o for d, o in zip(n.dims, orders))
        big = hmod.direct_sum(n, hmod.free_module(m.datum, m.k, m.p, r))
        layer = tuple(Subspace.from_rows(la.identity(2 * d)[:d], 2 * d, m.p)
                      for d in n.dims)
        ranks = []
        original = la.rank
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(la, "rank",
                       lambda a, p: ranks.append(a) or original(a, p))
            try:
                flagvar._flag_blocks(big, (r, r), (layer,))
                raised = False
            except NotLocallyFree:
                raised = True
        assert raised == (reference_not_free_at(n) is not None)
        eliminated = [e for e, o in zip(n.eps, orders)
                      if e.size and hmod._jordan_order(e) != o]
        assert len(ranks) == len(eliminated) or raised
        assert all(np.array_equal(a, b) for a, b in zip(ranks, eliminated))


class TestFreeModule:
    def test_zero(self, a2):
        m = hmod.free_module(a2, 2, 5, (0, 0))
        assert m.total_dim() == 0
        assert hmod.rank_vector(m) == (0, 0)

    def test_single_jordan_block(self, b2):
        m = hmod.free_module(b2, 2, 5, (1, 0))
        assert m.dims == (4, 0)
        assert la.rank(m.eps[0], 5) == 3

    def test_unit_rank(self, a2):
        for i in range(2):
            m = hmod.free_module(a2, 3, 5, RankVector.unit(2, i))
            assert hmod.rank_vector(m) == RankVector.unit(2, i)


class TestStructureMatrices:
    def test_zero_structure_is_free(self, b2):
        s = hmod.structure_from_arrays(b2, 2, 5, (2, 1), {})
        m = hmod.from_structure_matrices(s)
        assert hmod.modules_equal(m, hmod.free_module(b2, 2, 5, (2, 1)))

    def test_n_module_matrix(self, a2):
        m = n_module(a2, 2, 5)
        a = m.arrows[(0, 1)][0]
        expected = la.zeros(4, 4)
        expected[0, 2] = expected[1, 3] = 1
        assert np.array_equal(a, expected)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_round_trip(self, a2, b2, kronecker, k):
        for datum in (a2, b2, kronecker):
            for t in range(5):
                s = hmod.random_structure(datum, k, 3, (2, 1), seed=(k, t))
                m = hmod.from_structure_matrices(s)
                hmod.validate_module(m)
                assert hmod.is_locally_free(m)
                assert hmod.rank_vector(m) == (2, 1)
                back = hmod.to_structure_matrices(m)
                for key in s.mats:
                    assert np.array_equal(back.mats[key], s.mats[key])

    @pytest.mark.parametrize("length", [1, 3])
    def test_entries_not_truncated_at_loop_order(self, a2, length):
        """Coefficient lists must be k*c_i long: at k = 2 an A2 entry of
        length 1 or 3 is refused, one of length 2 is expanded."""
        def structure(length):
            mats = {(0, 1): np.ones((1, 1, length), dtype=np.int64)}
            return hmod.StructureMatrices(a2, 2, 3, RankVector((1, 1)), mats)

        with pytest.raises(EntryDegreeOverflow, match=(
                r"entries for \(1,2\) must be truncated at degree 2")):
            hmod.from_structure_matrices(structure(length))
        m = hmod.from_structure_matrices(structure(2))
        assert hmod.rank_vector(m) == (1, 1)

    def test_parameter_counts(self, a2, b2):
        assert hmod.structure_parameter_count(a2, 1, (1, 1)) == 1
        assert hmod.structure_parameter_count(b2, 2, (1, 1)) == 4

    def test_iter_matches_count(self, a2):
        points = list(hmod.iter_structure_matrices(a2, 1, 2, (1, 1)))
        assert len(points) == 2 ** hmod.structure_parameter_count(
            a2, 1, (1, 1))


class TestRandom:
    def test_deterministic(self, b2):
        m1 = hmod.random_locally_free(b2, 2, 5, (1, 2), seed=42)
        m2 = hmod.random_locally_free(b2, 2, 5, (1, 2), seed=42)
        assert hmod.modules_equal(m1, m2)
        m3 = hmod.random_locally_free(b2, 2, 5, (1, 2), seed=43)
        assert not hmod.modules_equal(m1, m3)

    def test_always_locally_free(self, a2, b2, kronecker):
        for datum in (a2, b2, kronecker):
            for t in range(10):
                m = hmod.random_locally_free(datum, 2, 3, (2, 1), seed=t)
                hmod.validate_module(m)
                assert hmod.is_locally_free(m)


class TestDirectSumSubQuotient:
    def test_sum_with_zero(self, a2):
        m = golden_module(a2, 2, 5)
        z = hmod.free_module(a2, 2, 5, (0, 0))
        s = hmod.direct_sum(m, z)
        assert hmod.modules_equal(
            hmod.normalize(s)[0], hmod.normalize(m)[0])

    def test_rank_additive(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (1, 1), seed=0)
        n = hmod.random_locally_free(b2, 2, 3, (0, 2), seed=1)
        assert (hmod.rank_vector(hmod.direct_sum(m, n))
                == RankVector((1, 3)))

    def test_sub_quotient_invariant(self, a2):
        m = n_module(a2, 1, 2)
        # vertex subspaces spanned by the first generator are invariant
        u = (Subspace.from_rows([[1, 0]], 2, 2),
             Subspace.from_rows([[1, 0]], 2, 2))
        sq = hmod.sub_quotient(m, u)
        assert hmod.rank_vector(sq.sub) == (1, 1)
        assert hmod.rank_vector(sq.quotient.module) == (1, 1)

    def test_sub_quotient_not_invariant(self, a2):
        m = n_module(a2, 1, 2)
        # the arrow sends the second generator at vertex 2 to the first
        # generator at vertex 1, which is not in span((0, 1))
        u = (Subspace.from_rows([[0, 1]], 2, 2),
             Subspace.from_rows([[0, 1]], 2, 2))
        with pytest.raises(NotInvariant):
            hmod.sub_quotient(m, u)

    def test_quotient_of_locally_free_is_locally_free(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (2, 1), seed=5)
        from cartanquiver import flagvar

        tuples = list(flagvar.iter_locally_free_submodules(m, (1, 0)))
        for u in tuples[:5]:
            sq = hmod.sub_quotient(m, u)
            assert hmod.is_locally_free(sq.sub)
            assert hmod.is_locally_free(sq.quotient.module)
            assert (hmod.rank_vector(sq.quotient.module)
                    == hmod.rank_vector(m) - RankVector((1, 0)))


def generated_submodule(m, rng, gens=1):
    """The smallest invariant subspaces containing random vectors: a few
    random vectors per vertex, closed under every loop and arrow."""
    subs = [Subspace.from_rows(rng.integers(0, m.p, size=(gens, d)), d, m.p)
            for d in m.dims]
    while True:
        grown = list(subs)
        for _, mat, i, j in m.maps_with_labels():
            image = (mat @ subs[j].basis.T).T % m.p
            grown[i] = grown[i] + Subspace.from_rows(image, m.dims[i], m.p)
        if grown == subs:
            return subs
        subs = grown


class TestSubmodule:
    def test_matches_sub_quotient(self, a2, b2, kronecker):
        rng = np.random.default_rng(11)
        for datum in (a2, b2, kronecker):
            for t in range(4):
                m = hmod.random_locally_free(datum, 2, 3, (2, 1),
                                             seed=(12, t))
                u = generated_submodule(m, rng, gens=1 + t % 2)
                sub = hmod.sub_quotient(m, u).sub
                want, bases = reference_submodule(m, u)
                assert hmod.modules_equal(sub, want)
                hmod.validate_module(sub)
                assert sub.dims == tuple(x.dim for x in u)
                # the submodule is in the coordinates of the RREF bases:
                # their transposes embed it into m
                homext.check_homomorphism(sub, m, bases)

    def test_not_invariant(self, a2):
        m = n_module(a2, 1, 2)
        u = (Subspace.from_rows([[0, 1]], 2, 2),
             Subspace.from_rows([[0, 1]], 2, 2))
        with pytest.raises(NotInvariant):
            hmod.sub_quotient(m, u)
        rng = np.random.default_rng(13)
        refused = 0
        for t in range(10):
            u = [Subspace.from_rows(rng.integers(0, 2, size=(1, d)), d, 2)
                 for d in m.dims]
            if all(u[i].contains_rows((mat @ u[j].basis.T).T)
                   for _, mat, i, j in m.maps_with_labels()):
                continue
            with pytest.raises(NotInvariant):
                hmod.sub_quotient(m, u)
            refused += 1
        assert refused


class TestEpsilonCentrality:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_blocks_commute_and_vanish(self, a2, b2, kronecker, k):
        for datum in (a2, b2, kronecker):
            m = hmod.random_locally_free(datum, k, 3, (2, 1), seed=k)
            blocks = hmod.epsilon_blocks(m)
            for i in range(m.n):
                assert not la.matpow(blocks[i], k, 3).any()
                assert np.array_equal((blocks[i] @ m.eps[i]) % 3,
                                      (m.eps[i] @ blocks[i]) % 3)
            for (i, j), mats in m.arrows.items():
                for a in mats:
                    assert np.array_equal((blocks[i] @ a) % 3,
                                          (a @ blocks[j]) % 3)


class TestNormalize:
    def test_scrambled_module(self, b2):
        m = hmod.random_locally_free(b2, 2, 5, (1, 1), seed=9)
        rng = np.random.default_rng(10)
        ts = []
        for d in m.dims:
            while True:
                t = rng.integers(0, 5, size=(d, d))
                if la.rank(t, 5) == d:
                    ts.append(t)
                    break
        tinv = [la.inv(t, 5) for t in ts]
        eps = [(tinv[i] @ m.eps[i] @ ts[i]) % 5 for i in range(2)]
        arrows = {key: [(tinv[key[0]] @ a @ ts[key[1]]) % 5 for a in mats]
                  for key, mats in m.arrows.items()}
        scrambled = hmod.make_module(b2, 2, 5, eps, arrows)
        std, _ = hmod.normalize(scrambled)
        assert std.standard_form
        assert np.array_equal(std.eps[0], m.eps[0])
        from cartanquiver import homext

        assert homext.are_isomorphic(std, m).isomorphic


def jordan_reference(e, order):
    """Whether e is the generator-major nilpotent Jordan matrix with blocks
    of size `order`, built entry by entry."""
    d = e.shape[0]
    want = np.zeros((d, d), dtype=np.int64)
    for t in range(d - 1):
        want[t + 1, t] = int((t + 1) % order != 0)
    return d % order == 0 and np.array_equal(e, want)


class TestStandardForm:
    """`standard_form` is read off the loops, so no module can claim a
    standard form its loops do not have."""

    @pytest.mark.parametrize("name", ["a2", "b2", "g2", "kronecker"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_read_off_the_loops(self, request, name, k):
        datum = request.getfixturevalue(name)
        rng = np.random.default_rng(k)
        seen = set()
        for t, r in enumerate([(1, 1), (2, 1), (0, 2)]):
            m = hmod.random_locally_free(datum, k, 3, r, seed=("sf", k, t))
            for vertices in ({0}, {1}, {0, 1}):
                c = unitriangular_conjugate(m, vertices, rng)
                ds = hmod.direct_sum(m, c)
                for x in (m, c, ds):
                    assert x.standard_form == all(
                        jordan_reference(e, x.loop_order(i))
                        for i, e in enumerate(x.eps))
                    seen.add(x.standard_form)
                assert ds.standard_form == c.standard_form
                assert hmod.direct_sum(m, m).standard_form
                for e in itertools.product(*(range(ri + 1) for ri in r)):
                    assert (flagvar.count_locally_free_submodules(c, e)
                            == flagvar.count_locally_free_submodules(m, e))
        # zero loops (order 1) are Jordan in every basis
        assert seen == ({True, False} if k * max(datum.d) > 1 else {True})

    def test_conjugate_counts_b2(self, b2):
        # a unitriangular change of basis at vertex 1 takes the loop out of
        # Jordan form; the count must not trust the old form
        m = hmod.random_locally_free(b2, 2, 3, (2, 1), seed=3)
        c = unitriangular_conjugate(m, {0}, np.random.default_rng(0))
        assert m.standard_form and not c.standard_form
        assert flagvar.count_locally_free_submodules(m, (1, 1)) == 1
        assert flagvar.count_locally_free_submodules(c, (1, 1)) == 1


class TestModulusBound:
    @pytest.mark.parametrize("p", [2147483647, 3037000493, 4294967311])
    def test_large_primes_refused(self, a2, p):
        zero = np.zeros((1, 1), dtype=np.int64)
        with pytest.raises(ModulusTooLarge):
            hmod.make_module(a2, 1, p, [zero, zero], {})
        with pytest.raises(ValidationError):
            hmod.free_module(a2, 2, p, (1, 1))

    def test_reduce_mod_p_refuses_large_prime(self, a2):
        with pytest.raises(ModulusTooLarge):
            hmod.reduce_mod_p(n_module(a2, 2, 5), 46349)

    def test_largest_prime_hom_space_exact(self, b2):
        from cartanquiver import homext

        p = la.MAX_PRIME
        m = hmod.random_locally_free(b2, 2, p, (2, 1), seed=3)
        rng = np.random.default_rng(4)
        ts = []
        for d in m.dims:
            while True:
                t = rng.integers(p - 50, p, size=(d, d))
                if la.rank(t, p) == d:
                    ts.append(t)
                    break
        tinv = [la.inv(t, p) for t in ts]

        def conj(x, i, j):
            # Python-integer arithmetic: exact for any p
            return (tinv[i].astype(object) @ x.astype(object)
                    @ ts[j].astype(object)) % p

        scrambled = hmod.make_module(
            b2, 2, p, [conj(m.eps[i], i, i).astype(np.int64)
                       for i in range(m.n)],
            {key: [conj(a, *key).astype(np.int64) for a in mats]
             for key, mats in m.arrows.items()})
        end_m = homext.hom_space(m, m)
        end_s = homext.hom_space(scrambled, scrambled)
        assert end_s.dim == end_m.dim >= 1
        for f in end_s.elements:
            for i in range(scrambled.n):
                fi = f[i].astype(object)
                lhs = fi @ scrambled.eps[i].astype(object)
                rhs = scrambled.eps[i].astype(object) @ fi
                assert not ((lhs - rhs) % p).any()
            for (i, j), mats in scrambled.arrows.items():
                for a in mats:
                    lhs = f[i].astype(object) @ a.astype(object)
                    rhs = a.astype(object) @ f[j].astype(object)
                    assert not ((lhs - rhs) % p).any()
        iso = homext.are_isomorphic(m, scrambled)
        assert iso.isomorphic and iso.certain


class TestLift:
    def test_reduce_mod_p(self, a2):
        m = n_module(a2, 2, 5)
        for q in (2, 3, 7):
            mq = hmod.reduce_mod_p(m, q)
            hmod.validate_module(mq)
            assert mq.p == q
            assert hmod.is_locally_free(mq)

    def test_structure_lift_entries_canonical(self, modules):
        # the integer lift is the entries: reducing at the module's own
        # prime gives the module back
        for m in modules:
            assert hmod.modules_equal(hmod.reduce_mod_p(m, m.p), m)

    def test_broken_lift(self, a2):
        # the loop at vertex 1 squares to 3 * [[1, 1], [2, 2]]: zero mod 3,
        # not mod 5
        eps = [np.array([[1, 1], [2, 2]]), np.array([[0, 0], [1, 0]])]
        m = hmod.make_module(a2, 2, 3, eps, {})
        assert hmod.is_locally_free(m) and not m.standard_form
        with pytest.raises(RelationBrokenAtPrime):
            hmod.reduce_mod_p(m, 5)


class TestSerialization:
    def test_structure_roundtrip(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (2, 1), seed=3)
        data = hmod.module_to_dict(m)
        assert data["format_version"] == hmod.MODULE_FORMAT_VERSION
        back = hmod.module_from_dict(b2, json.loads(json.dumps(data)))
        assert hmod.modules_equal(m, back)

    def test_raw_roundtrip(self, a2):
        m = scrambled(golden_module(a2, 2, 5), np.random.default_rng(1))
        assert not m.standard_form
        data = hmod.module_to_dict(m)
        assert "eps" in data
        back = hmod.module_from_dict(a2, data)
        assert hmod.modules_equal(m, back)

    def test_standard_loops_write_structure(self, a2):
        # a direct sum of standard modules, and a dims/eps file with Jordan
        # loops, are written as rank and structure
        m = golden_module(a2, 2, 5)
        ds = hmod.direct_sum(m, n_module(a2, 2, 5))
        for mod in (ds, hmod.module_from_dict(a2, dims_eps_file(m))):
            data = hmod.module_to_dict(mod)
            assert "structure" in data and "eps" not in data
            assert hmod.modules_equal(hmod.module_from_dict(a2, data), mod)


    @pytest.mark.parametrize("form", ["structure", "arrows"])
    def test_key_outside_orientation_rejected(self, a2, form):
        # a2 is oriented 1 -> 2, so its one oriented pair is "1,2"
        m = golden_module(a2, 2, 5)
        raw = m if form == "structure" else scrambled(
            m, np.random.default_rng(1))
        data = hmod.module_to_dict(raw)
        data[form] = {"2,1": data[form]["1,2"]}
        with pytest.raises(ShapeMismatch, match=r"\(2,1\)"):
            hmod.module_from_dict(a2, data)

    @pytest.mark.parametrize("data,error", MALFORMED_MODULE_FILES)
    def test_malformed_file_raises_typed_error(self, a2, data, error):
        with pytest.raises(error):
            hmod.module_from_dict(a2, data)

    def test_extra_keys_rejected_by_constructors(self, a2):
        with pytest.raises(ShapeMismatch, match=r"\(2,1\)"):
            hmod.structure_from_arrays(a2, 1, 2, (1, 1),
                                       {(1, 0): np.ones((1, 1, 1))})
        with pytest.raises(ShapeMismatch, match=r"\(2,1\)"):
            hmod.make_module(a2, 1, 2, [la.zeros(1, 1)] * 2,
                             {(1, 0): [la.zeros(1, 1)]})


class TestTwistedStructure:
    """Data where the oriented pair has twist degree f_ij > 1, so arrow
    columns at twisted source degrees come from the rewriting rule."""

    def test_twist_degrees(self, b2_rev, g2):
        (i, j) = next(iter(b2_rev.omega))
        assert b2_rev.f(i, j) == 2
        (i, j) = next(iter(g2.omega))
        assert g2.f(i, j) == 3

    @pytest.mark.parametrize("k", [1, 2])
    def test_round_trip_and_validation(self, b2_rev, g2, k):
        for datum in (b2_rev, g2):
            for t in range(6):
                s = hmod.random_structure(datum, k, 3, (2, 1),
                                          seed=("tw", k, t))
                m = hmod.from_structure_matrices(s)
                hmod.validate_module(m)
                assert hmod.is_locally_free(m)
                back = hmod.to_structure_matrices(m)
                for key in s.mats:
                    assert np.array_equal(back.mats[key], s.mats[key])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_epsilon_central(self, b2_rev, g2, k):
        for datum in (b2_rev, g2):
            m = hmod.random_locally_free(datum, k, 5, (1, 1),
                                         seed=("c", k))
            blocks = hmod.epsilon_blocks(m)
            for (i, j), mats in m.arrows.items():
                for a in mats:
                    assert np.array_equal((blocks[i] @ a) % 5,
                                          (a @ blocks[j]) % 5)
            assert not any(
                la.matpow(blocks[i], k, 5).any() for i in range(m.n))


class TestContentKey:
    """Literal equality has one rule: one (datum, k, p) and one `content`
    key, the dims and the bytes of the loops and arrows in map order."""

    def routes(self, m):
        """m rebuilt along routes that share no code with its own."""
        whole = [Subspace.from_rows(la.identity(d), d, m.p) for d in m.dims]
        zero = [Subspace.zero(d, m.p) for d in m.dims]
        yield hmod.from_structure_matrices(hmod.to_structure_matrices(m))
        yield hmod.module_from_dict(m.datum, hmod.module_to_dict(m))
        yield hmod.reduce_mod_p(m, m.p)
        yield hmod.quotient(m, zero).module
        yield hmod.sub_quotient(m, whole).sub
        yield hmod.make_module(m.datum, m.k, m.p,
                               [e.copy() for e in m.eps],
                               {key: [a.T.copy().T for a in mats]
                                for key, mats in reversed(m.arrows.items())})

    def test_equal_routes_share_the_key(self, a2, b2_rev, kronecker):
        for datum in (a2, b2_rev, kronecker):
            m = hmod.random_locally_free(datum, 2, 3, (2, 1), seed=5)
            for other in self.routes(m):
                assert other is not m
                assert other.content == m.content
                assert hmod.modules_equal(other, m)
                assert hmod.modules_equal(m, other)

    def test_one_entry_k_or_p_differs(self, a2, b2_rev):
        for datum in (a2, b2_rev):
            s = hmod.random_structure(datum, 2, 3, (1, 2), seed=2)
            m = hmod.from_structure_matrices(s)
            for key, arr in s.mats.items():
                for index in itertools.product(*map(range, arr.shape)):
                    mats = {k: v.copy() for k, v in s.mats.items()}
                    mats[key][index] = (mats[key][index] + 1) % 3
                    other = hmod.from_structure_matrices(
                        hmod.structure_from_arrays(datum, 2, 3, s.rank,
                                                   mats))
                    assert other.content != m.content
                    assert not hmod.modules_equal(other, m)
        # zero loops hold at every level; entries 0 and 1 at every prime
        low = hmod.make_module(a2, 1, 2, [la.zeros(1, 1)] * 2,
                               {(0, 1): [[[1]]]})
        for other in (hmod.make_module(a2, 2, 2, low.eps, low.arrows),
                      hmod.reduce_mod_p(low, 3)):
            assert other.content == low.content
            assert not hmod.modules_equal(other, low)
            assert not hmod.modules_equal(low, other)
        assert not hmod.modules_equal(
            hmod.free_module(a2, 1, 2, (1, 0)),
            hmod.free_module(a2, 1, 2, (0, 1)))
