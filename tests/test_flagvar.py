import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanquiver import exactlinalg as la
from cartanquiver import flagvar, hmod, homext, reduction
from cartanquiver.cartan import RankVector, euler_form, flag_dimension
from cartanquiver.errors import (
    BudgetExceeded,
    FlagNotInReduction,
    InternalCheckError,
    KTooSmall,
    LengthMismatch,
    NonIntegerCoefficient,
    NotEnoughPrimes,
    OverdeterminedMismatch,
    RankTooLarge,
    ValidationError,
)

from conftest import (
    assert_matches_dense,
    golden_module,
    line_submodule,
    n_module,
    reference_generators,
    reference_intertwiner_rows,
    reference_mod_epsilon_tensor,
    reference_rinv,
    reference_rmul,
    reference_total_blocks,
)


def brvec(seq):
    return tuple(RankVector(r) for r in seq)


def rigid_module(datum, k, p, r, seed=0):
    res = homext.find_rigid(datum, k, p, r, trials=50, seed=seed)
    assert res.found()
    return res.module


def ring_charts(m_order, r, e, p):
    """All charts of one key, in chart order, as ring matrices."""
    return list(flagvar._chart_block(m_order, r, e, p, 0,
                                     flagvar.chart_count(m_order, r, e, p)))


def chart_subspace(ring_mat, m_order, r, p):
    """K-span of the ring columns and all their eps-shifts."""
    rows = hmod.ring_to_matrix(ring_mat, m_order, m_order).T
    return la.Subspace.from_rows(rows, r * m_order, p)


class TestChartEnumeration:
    @pytest.mark.parametrize("m_order,r,e,p", [
        (1, 2, 1, 2), (2, 2, 1, 2), (2, 2, 1, 3), (3, 2, 1, 2),
        (2, 3, 1, 2), (2, 3, 2, 2), (1, 3, 2, 3),
    ])
    def test_chart_count_matches_closed_form(self, m_order, r, e, p):
        # free rank-e submodules of a rank-r column: classical Grassmannian
        # times p^((m-1) e (r-e))
        produced = len(ring_charts(m_order, r, e, p))
        closed = (la.gaussian_binomial(r, e, p)
                  * p ** ((m_order - 1) * e * (r - e)))
        assert produced == closed == flagvar.chart_count(m_order, r, e, p)

    def test_charts_distinct_as_subspaces(self):
        subs = [chart_subspace(mat, 2, 2, 2)
                for mat in ring_charts(2, 2, 1, 2)]
        assert len(subs) == len(set(subs))

    def test_subspaces_are_free(self, a2):
        m = hmod.free_module(a2, 2, 3, (2, 0))
        for mat in ring_charts(2, 2, 1, 3):
            sub = chart_subspace(mat, 2, 2, 3)
            assert sub.dim == 2
            image = (m.eps[0] @ sub.basis.T).T
            assert sub.contains_rows(image)


def reference_charts(m_order, r, e, p):
    """The per-chart fill loop: one ring matrix at a time, in chart order
    (pivot patterns in combination order, free coefficients by row, column
    and then degree, lowest degree least significant)."""
    if e == 0:
        yield np.zeros((r, 0, m_order), dtype=np.int64)
        return
    for pivots in itertools.combinations(range(r), e):
        positions = []
        for q in range(r):
            if q in pivots:
                continue
            below = sum(1 for piv in pivots if piv < q)
            for col in range(e):
                positions.append((q, col, 0 if col < below else 1))
        ranges = [range(p ** (m_order - mind)) for _, _, mind in positions]
        for codes in itertools.product(*ranges):
            mat = np.zeros((r, e, m_order), dtype=np.int64)
            for col, piv in enumerate(pivots):
                mat[piv, col, 0] = 1
            for (row, col, mind), code in zip(positions, codes):
                for t in range(mind, m_order):
                    code, digit = divmod(code, p)
                    mat[row, col, t] = digit
            yield mat


def reference_subspace(ring_mat, m_order, r, p):
    """Span of the ring columns and their eps-shifts, filled entry by entry
    and reduced by la.rref."""
    e = ring_mat.shape[1]
    rows = la.zeros(e * m_order, r * m_order)
    for col in range(e):
        for shift in range(m_order):
            vec = rows[col * m_order + shift]
            for s in range(r):
                for deg in range(m_order - shift):
                    vec[s * m_order + deg + shift] = ring_mat[s, col, deg]
    return la.Subspace.from_rows(rows, r * m_order, p)


TABLE_KEYS = [(m_order, r, e, p)
              for m_order in range(1, 5) for r in range(4)
              for e in range(r + 1) for p in (2, 3, 5)
              if flagvar.chart_count(m_order, r, e, p) <= 2000]


class TestCandidateTables:
    def test_tables_match_per_chart_reference(self):
        for key in TABLE_KEYS:
            m_order, r, e, p = key
            charts = list(reference_charts(*key))
            assert len(charts) == flagvar.chart_count(*key), key
            produced = ring_charts(*key)
            assert len(produced) == len(charts), key
            for want, got in zip(charts, produced):
                assert np.array_equal(want, got), key
            blocks = list(flagvar._candidate_blocks(*key))
            cached = flagvar._vertex_candidates(*key)
            assert len(cached) == len(blocks), key
            assert all(a is b for a, b in zip(cached, blocks)), key
            got_subs = [block.subspace(t) for block in blocks
                        for t in range(len(block))]
            assert len(got_subs) == len(charts), key
            for mat, got in zip(charts, got_subs):
                want = reference_subspace(mat, m_order, r, p)
                assert got == want, key
                assert np.array_equal(got.basis, want.basis), key
                assert got.pivots == want.pivots, key
                assert got.basis.dtype == want.basis.dtype, key
                assert hash(got) == hash(want), key

    def test_table_is_read_only(self, monkeypatch):
        monkeypatch.setattr(flagvar, "_BLOCK_CELLS", 40)
        flagvar._vertex_candidates.cache_clear()
        try:
            key = (2, 2, 1, 3)
            list(flagvar._candidate_blocks(*key))
            blocks = flagvar._vertex_candidates(*key)
            assert len(blocks) > 1
            for block in blocks:
                sub = block.subspace(len(block) - 1)
                for arr in (block.basis, block.pivots, sub.basis):
                    with pytest.raises(ValueError):
                        arr[...] = 0
        finally:
            flagvar._vertex_candidates.cache_clear()

    def test_cache_is_bounded(self):
        size = flagvar._CANDIDATE_CACHE_SIZE
        assert size >= 128
        assert flagvar._vertex_candidates.cache_info().maxsize == size
        primes = [q for q in range(2, 10 ** 4)
                  if all(q % d for d in range(2, int(q ** 0.5) + 1))]
        assert len(primes) > size + 10
        flagvar._vertex_candidates.cache_clear()
        try:
            for q in primes[:size + 10]:
                assert len(flagvar._vertex_candidates(1, 1, 1, q)) == 1
                info = flagvar._vertex_candidates.cache_info()
                assert info.currsize <= size
            assert info.currsize == size
        finally:
            flagvar._vertex_candidates.cache_clear()

    def test_cache_clear_leaves_no_enumeration_state(self, a2):
        # the candidate tables are the only cache: no other cached callable
        # lives in the module, and a cleared cache is rebuilt key by key
        cached = [name for name, obj in vars(flagvar).items()
                  if hasattr(obj, "cache_info")]
        assert cached == ["_vertex_candidates"]
        m = n_module(a2, 2, 3)
        flagvar._vertex_candidates.cache_clear()
        first = flagvar.enumerate_locally_free_submodules(m, (1, 1))
        misses = flagvar._vertex_candidates.cache_info().misses
        assert misses == 1          # both vertices share the key (2, 2, 1, 3)
        flagvar._vertex_candidates.cache_clear()
        assert flagvar._vertex_candidates.cache_info().currsize == 0
        again = flagvar.enumerate_locally_free_submodules(m, (1, 1))
        assert flagvar._vertex_candidates.cache_info().misses == misses
        assert again == first

    def test_rank_check(self, monkeypatch):
        original = la.rref_stack

        def short_rank(rows, p):
            reduced, ranks, pivots = original(rows, p)
            return reduced, ranks - 1, pivots

        monkeypatch.setattr(la, "rref_stack", short_rank)
        with pytest.raises(InternalCheckError):
            flagvar._new_table(2, 2, 1, 3, 0, 4)


def brute_force_submodules(m, e):
    """Every product of per-vertex charts (reference fill loop), filtered by
    arrow closure with Subspace.contains_rows, in product order."""
    per_vertex = []
    for v in range(m.n):
        order = m.loop_order(v)
        r = m.dims[v] // order
        per_vertex.append([reference_subspace(mat, order, r, m.p)
                           for mat in reference_charts(order, r, e[v], m.p)])
    out = []
    for tup in itertools.product(*per_vertex):
        if all(tup[i].contains_rows((a @ tup[j].basis.T).T)
               for (i, j), mats in m.arrows.items() for a in mats):
            out.append(tup)
    return out


def _search_cases(datum, ranks, ks=(1, 2), ps=(2, 3), samples=2):
    for k in ks:
        for p in ps:
            for r in ranks:
                for t in range(samples):
                    m = hmod.random_locally_free(datum, k, p, r,
                                                 seed=(40, k, p, t) + r)
                    for e in itertools.product(*(range(x + 1) for x in r)):
                        yield m, e


class TestClosureSearchOracle:
    @pytest.mark.parametrize("name", ["a2", "b2", "b2_rev", "kronecker"])
    def test_two_vertex_modules(self, request, name):
        datum = request.getfixturevalue(name)
        ranks = [(2, 1), (1, 2), (2, 2)]
        ps = (2, 3) if name != "b2" else (2,)
        for m, e in _search_cases(datum, ranks, ps=ps):
            want = brute_force_submodules(m, e)
            got = flagvar.enumerate_locally_free_submodules(m, e)
            assert got == want, (m.dims, e)
            assert flagvar.count_locally_free_submodules(m, e) == len(want)

    def test_three_vertex_modules(self, a3):
        for m, e in _search_cases(a3, [(1, 1, 1), (1, 2, 1), (2, 1, 1)],
                                  ps=(2,)):
            want = brute_force_submodules(m, e)
            got = flagvar.enumerate_locally_free_submodules(m, e)
            assert got == want, (m.dims, e)
            assert flagvar.count_locally_free_submodules(m, e) == len(want)


class TestStreamedCandidates:
    """Keys over the cache limit are streamed block by block, never cached,
    with the same order, counts and flags as the cached tables."""

    @pytest.mark.parametrize("cells", [1, 40, None])
    def test_streamed_matches_cached(self, a2, b2, monkeypatch, cells):
        cases = [(n_module(a2, 2, 3), (1, 1), [(1, 1), (1, 1)]),
                 (rigid_module(b2, 2, 2, (2, 1), seed=5), (1, 1),
                  [(1, 0), (1, 1)]),
                 (rigid_module(a2, 2, 2, (2, 1), seed=6), (1, 0),
                  [(1, 0), (1, 0), (0, 1)])]
        cached = []
        for m, e, brseq in cases:
            cached.append((flagvar.enumerate_locally_free_submodules(m, e),
                           flagvar.count_locally_free_submodules(m, e),
                           [f.layers for f in flagvar.enumerate_flags(
                               m, brseq)],
                           flagvar.point_count(m, brseq)))
        monkeypatch.setattr(flagvar, "_CANDIDATE_CACHE_LIMIT", 1)
        if cells is not None:
            monkeypatch.setattr(flagvar, "_BLOCK_CELLS", cells)
        flagvar._vertex_candidates.cache_clear()
        for (m, e, brseq), want in zip(cases, cached):
            got = (flagvar.enumerate_locally_free_submodules(m, e),
                   flagvar.count_locally_free_submodules(m, e),
                   [f.layers for f in flagvar.enumerate_flags(m, brseq)],
                   flagvar.point_count(m, brseq))
            assert got == want
        # only the single-chart keys (zero and full layers) were cached
        info = flagvar._vertex_candidates.cache_info()
        assert info.currsize == info.misses
        for key in [(2, 2, 1, 3), (4, 2, 1, 2), (2, 2, 1, 2)]:
            assert flagvar.chart_count(*key) > 1
            before = flagvar._vertex_candidates.cache_info().misses
            blocks = list(flagvar._candidate_blocks(*key))
            assert flagvar._vertex_candidates.cache_info().misses == before
            assert sum(len(b) for b in blocks) == flagvar.chart_count(*key)
        flagvar._vertex_candidates.cache_clear()

    def test_early_stop_builds_one_block(self, monkeypatch):
        built = []
        original = flagvar._chart_block

        def counting(m_order, r, e, p, start, stop):
            built.append(stop - start)
            return original(m_order, r, e, p, start, stop)

        monkeypatch.setattr(flagvar, "_CANDIDATE_CACHE_LIMIT", 1)
        monkeypatch.setattr(flagvar, "_BLOCK_CELLS", 40)
        monkeypatch.setattr(flagvar, "_chart_block", counting)
        key = (2, 2, 1, 3)
        step = flagvar._block_size(2, 2, 1)
        assert step < flagvar.chart_count(*key)
        stream = flagvar._candidate_blocks(*key)
        first = next(stream)
        stream.close()
        assert len(first) == step and built == [step]


class TestLazyBlocks:
    """Blocks of cached keys are built when a search first reaches them,
    once each, and kept in the key's block list for every later search."""

    KEY = (2, 2, 1, 3)      # both vertices of n_module(a2, 2, 3) at e=(1, 1)

    @pytest.fixture
    def built(self, monkeypatch):
        """Small blocks and a record of the (key, start) of every build."""
        record = []
        original = flagvar._chart_block

        def counting(m_order, r, e, p, start, stop):
            record.append(((m_order, r, e, p), start))
            return original(m_order, r, e, p, start, stop)

        monkeypatch.setattr(flagvar, "_BLOCK_CELLS", 40)
        monkeypatch.setattr(flagvar, "_chart_block", counting)
        flagvar._vertex_candidates.cache_clear()
        yield record
        flagvar._vertex_candidates.cache_clear()

    def _block_starts(self):
        count = flagvar.chart_count(*self.KEY)
        return list(range(0, count, flagvar._block_size(*self.KEY[:3])))

    def test_early_stop_builds_reached_blocks(self, a2, built, monkeypatch):
        starts = self._block_starts()
        assert len(starts) > 2
        reached = []
        original = flagvar._candidate_blocks

        def recording(*key):
            for b, block in enumerate(original(*key)):
                reached.append((key, starts[b]))
                yield block

        monkeypatch.setattr(flagvar, "_candidate_blocks", recording)
        m = n_module(a2, 2, 3)
        stream = flagvar.iter_flags(m, [(1, 1), (1, 1)])
        first = next(stream)
        stream.close()
        assert sorted(set(reached)) == sorted(built)
        assert len(built) == len(set(built)) < len(starts)
        blocks = flagvar._vertex_candidates(*self.KEY)
        assert [b is not None for b in blocks] == [
            (self.KEY, s) in built for s in starts]
        # a count over the key fills in the rest, building each block once
        assert flagvar.count_locally_free_submodules(m, (1, 1)) == 27
        assert sorted(built) == [(self.KEY, s) for s in starts]
        eager = flagvar._new_table(*self.KEY, 0,
                                   flagvar.chart_count(*self.KEY))
        for name in ("basis", "pivots"):
            got = np.concatenate([getattr(b, name) for b in blocks])
            want = getattr(eager, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert first.layers == flagvar.enumerate_flags(
            m, [(1, 1), (1, 1)])[0].layers

    def test_interleaved_searches_share_blocks(self, a2, built):
        m = n_module(a2, 2, 3)
        seq = [(1, 1), (1, 1)]
        suspended = flagvar.iter_flags(m, seq)
        head = [next(suspended)]
        # the second search builds the later blocks while the first one is
        # suspended inside the key; the first must read them, not rebuild
        every = flagvar.enumerate_flags(m, seq)
        head += list(suspended)
        assert [f.layers for f in head] == [f.layers for f in every]
        assert len(every) == 27
        assert sorted(built) == [(self.KEY, s) for s in self._block_starts()]

    def test_rank_check_on_lazy_blocks(self, a2, built, monkeypatch):
        stream = flagvar._candidate_blocks(*self.KEY)
        next(stream)
        stream.close()
        original = la.rref_stack

        def short_rank(rows, p):
            reduced, ranks, pivots = original(rows, p)
            return reduced, ranks - 1, pivots

        monkeypatch.setattr(la, "rref_stack", short_rank)
        # block 0 is cached; the next block is built, and checked, now
        with pytest.raises(InternalCheckError):
            flagvar.count_locally_free_submodules(n_module(a2, 2, 3), (1, 1))
        assert built == [(self.KEY, 0), (self.KEY, self._block_starts()[1])]


class TestSubmoduleEnumeration:
    def test_zero_and_full(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (2, 1), seed=0)
        zero = flagvar.enumerate_locally_free_submodules(m, (0, 0))
        assert len(zero) == 1 and all(s.dim == 0 for s in zero[0])
        full = flagvar.enumerate_locally_free_submodules(m, (2, 1))
        assert len(full) == 1
        assert all(s.dim == m.dims[i] for i, s in enumerate(full[0]))

    @pytest.mark.parametrize("q", [2, 3])
    def test_n_module_grassmannian(self, a2, q):
        subs = flagvar.enumerate_locally_free_submodules(
            n_module(a2, 1, q), (1, 1))
        assert len(subs) == 2 * q + 1

    @pytest.mark.parametrize("q,k", [(2, 2), (3, 2)])
    def test_n_module_higher_level(self, a2, q, k):
        # open chart pairs (a, b) with a*b = 0, plus 2 q^(k-1) points on
        # the far charts
        count = len(flagvar.enumerate_locally_free_submodules(
            n_module(a2, k, q), (1, 1)))
        u_locus = sum(1 for a, b in itertools.product(
            range(q ** k), repeat=2)
            if _trunc_mul(a, b, k, q) == 0)
        assert count == u_locus + 2 * q ** (k - 1)

    def test_rank_too_large(self, a2):
        with pytest.raises(RankTooLarge):
            flagvar.enumerate_locally_free_submodules(
                hmod.free_module(a2, 1, 2, (1, 1)), (2, 0))

    def test_budget_guardrail(self, a2, monkeypatch):
        # vertex 1 has 3 candidate lines in F_2^2; no arrow is active
        m = hmod.free_module(a2, 1, 2, (2, 1))
        monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 1)
        with pytest.raises(BudgetExceeded, match="VERTEX_CANDIDATE_BUDGET"):
            flagvar.enumerate_locally_free_submodules(m, (1, 0))
        # a count with no active arrow is a closed-form product
        assert flagvar.count_locally_free_submodules(m, (1, 0)) == 3
        monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 3)
        assert len(flagvar.enumerate_locally_free_submodules(m, (1, 0))) == 3

    def test_non_standard_module(self, a2):
        m = n_module(a2, 1, 2)
        rng = np.random.default_rng(3)
        ts = []
        for d in m.dims:
            while True:
                t = rng.integers(0, 2, size=(d, d))
                if la.rank(t, 2) == d:
                    ts.append(t)
                    break
        tinv = [la.inv(t, 2) for t in ts]
        eps = [(tinv[i] @ m.eps[i] @ ts[i]) % 2 for i in range(2)]
        arrows = {key: [(tinv[key[0]] @ a @ ts[key[1]]) % 2 for a in mats]
                  for key, mats in m.arrows.items()}
        scrambled = hmod.make_module(a2, 1, 2, eps, arrows)
        subs = flagvar.enumerate_locally_free_submodules(scrambled, (1, 1))
        assert len(subs) == 5
        for tup in subs:
            for (i, j), mats in scrambled.arrows.items():
                for a in mats:
                    assert tup[i].contains_rows((a @ tup[j].basis.T).T)


def _trunc_mul(a_code, b_code, k, q):
    a = [(a_code // q ** t) % q for t in range(k)]
    b = [(b_code // q ** t) % q for t in range(k)]
    out = [0] * k
    for s in range(k):
        for t in range(k - s):
            out[s + t] = (out[s + t] + a[s] * b[t]) % q
    return sum(out)


class TestFactorizedCounting:
    def test_count_matches_enumeration(self, a2, b2, kronecker):
        rng = np.random.default_rng(17)
        for datum in (a2, b2, kronecker):
            for t in range(4):
                k = int(rng.integers(1, 3))
                m = hmod.random_locally_free(datum, k, 2, (2, 1),
                                             seed=(18, t))
                for e in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]:
                    got = flagvar.count_locally_free_submodules(m, e)
                    want = len(flagvar.enumerate_locally_free_submodules(
                        m, e))
                    assert got == want

    def test_count_with_zero_arrows(self, a2):
        # free module: every arrow inactive, the count is a pure product
        e = hmod.free_module(a2, 2, 3, (2, 1))
        assert (flagvar.count_locally_free_submodules(e, (1, 1))
                == flagvar.chart_count(2, 2, 1, 3)
                * flagvar.chart_count(2, 1, 1, 3))

    def test_point_count_matches_enumeration_three_layers(self, a2, b2,
                                                          a3):
        # three- and four-step sequences, zero parts included
        cases = [
            (n_module(a2, 1, 2), [[(1, 1), (0, 1), (1, 0)],
                                  [(1, 0), (1, 0), (0, 1), (0, 1)],
                                  [(0, 1), (1, 0), (0, 1), (1, 0)]]),
            (n_module(a2, 2, 2), [[(1, 0), (0, 1), (1, 1)],
                                  [(1, 0), (0, 1), (1, 0), (0, 1)]]),
            (rigid_module(b2, 2, 2, (1, 2)), [[(1, 0), (0, 1), (0, 1)],
                                              [(0, 1), (0, 1), (1, 0)],
                                              [(1, 0), (0, 0), (0, 1),
                                               (0, 1)]]),
            (hmod.random_locally_free(b2, 1, 2, (2, 2), seed=6),
             [[(1, 0), (1, 2), (0, 0)], [(1, 0), (1, 0), (0, 1), (0, 1)],
              [(1, 0), (0, 1), (1, 0), (0, 1)]]),
            (hmod.random_locally_free(a3, 1, 2, (1, 2, 1), seed=5),
             [[(1, 0, 0), (0, 1, 0), (0, 1, 1)],
              [(1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)]]),
            (hmod.random_locally_free(a3, 2, 2, (1, 2, 1), seed=5),
             [[(1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)]]),
        ]
        counts = []
        for m, seqs in cases:
            for brseq in seqs:
                counts.append(flagvar.point_count(m, brseq))
                assert counts[-1] == len(flagvar.enumerate_flags(m, brseq))
        assert sum(1 for c in counts if c > 1) >= 10

    def test_flag_budget_guardrail(self, no_arrows, monkeypatch):
        m = hmod.free_module(no_arrows, 1, 2, (2, 1))
        brseq = [(1, 0), (0, 1), (1, 0)]
        monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 1)
        with pytest.raises(BudgetExceeded):
            flagvar.point_count(m, brseq)
        with pytest.raises(BudgetExceeded):
            next(flagvar.iter_flags(m, brseq))
        monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 3)
        count = flagvar.point_count(m, brseq)
        assert count == len(list(flagvar.iter_flags(m, brseq)))
        assert count == flagvar.closed_form_flag_count_no_arrows(
            no_arrows, 1, 2, brseq)

    @pytest.mark.parametrize("fn", [flagvar.point_count,
                                    flagvar.bundle_ratio_check,
                                    flagvar.counting_polynomial],
                             ids=lambda fn: fn.__name__)
    def test_rejects_unknown_keywords(self, a2, fn):
        with pytest.raises(TypeError):
            fn(n_module(a2, 2, 2), [(1, 1), (1, 1)], bogus=1)


class TestFlagEnumeration:
    def test_length_two_is_grassmannian(self, a2):
        m = n_module(a2, 1, 2)
        flags = flagvar.enumerate_flags(m, [(1, 1), (1, 1)])
        subs = flagvar.enumerate_locally_free_submodules(m, (1, 1))
        assert len(flags) == len(subs)
        assert {f.layers[0] for f in flags} == set(map(tuple, subs))

    def test_unique_composition_series_no_arrows(self, no_arrows):
        for q in (2, 3):
            e = hmod.free_module(no_arrows, 1, q, (1, 1))
            flags = flagvar.enumerate_flags(e, [(1, 0), (0, 1)])
            assert len(flags) == 1

    def test_wrong_total_rank_empty(self, a2):
        m = hmod.free_module(a2, 1, 2, (1, 1))
        assert flagvar.enumerate_flags(m, [(1, 0), (1, 0)]) == []

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_no_arrows_closed_form_one_vertex(self, one_vertex, q, k):
        for brseq in [
            [(1,), (1,)], [(2,), (1,)], [(1,), (2,)],
            [(1,), (1,), (1,)], [(2,), (0,)], [(3,), (0,)],
        ]:
            rank = (sum(r[0] for r in brseq),)
            e = hmod.free_module(one_vertex, k, q, rank)
            count = flagvar.point_count(e, brseq)
            assert count == flagvar.closed_form_flag_count_no_arrows(
                one_vertex, k, q, brseq)

    @pytest.mark.parametrize("q", [2, 3])
    def test_no_arrows_closed_form_product(self, no_arrows, q):
        # two isolated vertices: the count is the per-vertex product
        for k in (1, 2):
            brseq = [(1, 0), (1, 1)]
            e = hmod.free_module(no_arrows, k, q, (2, 1))
            count = flagvar.point_count(e, brseq)
            assert count == flagvar.closed_form_flag_count_no_arrows(
                no_arrows, k, q, brseq)

    @pytest.mark.parametrize("q", [2, 3])
    def test_rigid_rank11_order_counts(self, a2, q):
        m = rigid_module(a2, 1, q, (1, 1))
        assert flagvar.point_count(m, [(1, 0), (0, 1)]) == 1
        assert flagvar.point_count(m, [(0, 1), (1, 0)]) == 0

    @pytest.mark.parametrize("q", [2, 3])
    def test_n_module_counts(self, a2, q):
        assert flagvar.point_count(n_module(a2, 1, q),
                                   [(1, 1), (1, 1)]) == 2 * q + 1

    def test_every_flag_validates(self, b2):
        m = rigid_module(b2, 2, 2, (1, 2))
        for brseq in ([(0, 1), (1, 1)], [(1, 1), (0, 1)],
                      [(0, 1), (0, 1), (1, 0)]):
            for flag in flagvar.enumerate_flags(m, brseq):
                flag.validate()



class TestClosedFormInputs:
    # before, k = 0 returned 1.5 and q = 1 raised ZeroDivisionError
    def test_level_below_one(self, one_vertex):
        for k in (0, -1):
            with pytest.raises(KTooSmall):
                flagvar.closed_form_flag_count_no_arrows(
                    one_vertex, k, 2, [(1,), (1,)])

    def test_field_size_below_two(self, one_vertex):
        for q in (1, 0, -2):
            with pytest.raises(ValidationError):
                flagvar.closed_form_flag_count_no_arrows(
                    one_vertex, 1, q, [(1,), (1,)])
        assert flagvar.closed_form_flag_count_no_arrows(
            one_vertex, 1, 2, [(1,), (1,)]) == 3

class TestShortRankVectors:
    """brseq entries with fewer entries than vertices raise LengthMismatch
    at every entry point, on A2 rank (2, 2)."""

    SHORT = [(1,), (1,)]

    def test_point_count(self, a2):
        with pytest.raises(LengthMismatch):
            flagvar.point_count(n_module(a2, 2, 2), self.SHORT)

    def test_iter_and_enumerate_flags(self, a2):
        m = n_module(a2, 2, 2)
        with pytest.raises(LengthMismatch):
            next(flagvar.iter_flags(m, self.SHORT))
        with pytest.raises(LengthMismatch):
            flagvar.enumerate_flags(m, self.SHORT)

    def test_validate_and_reduce_flag(self, a2):
        m = n_module(a2, 2, 2)
        flag = flagvar.enumerate_flags(m, [(1, 1), (1, 1)])[0]
        short = flagvar.FlagOfSubmodules(m, brvec(self.SHORT), flag.layers)
        with pytest.raises(LengthMismatch):
            short.validate()
        with pytest.raises(LengthMismatch):
            flagvar.reduce_flag(m, short)

    def test_fiber_of_reduction(self, a2):
        m = n_module(a2, 2, 2)
        bar = reduction.reduce(m).module
        base = flagvar.enumerate_flags(bar, [(1, 1), (1, 1)])[0]
        short = flagvar.FlagOfSubmodules(bar, brvec(self.SHORT), base.layers)
        with pytest.raises(LengthMismatch):
            flagvar.fiber_of_reduction(m, short)


class TestTensorModules:
    def test_repetitive_module(self, a2):
        m = golden_module(a2, 2, 5)
        rep = flagvar.repetitive_module(m, 4)
        assert len(rep.slots) == 3
        assert len(rep.connectors) == 2

    def test_repetitive_end_matches_end(self, a2, b2):
        for datum in (a2, b2):
            m = hmod.random_locally_free(datum, 2, 3, (1, 1), seed=1)
            end_dim = homext.hom_space(m, m).dim
            for l in (2, 3, 4):
                rep = flagvar.repetitive_module(m, l)
                assert flagvar.hom_tensor(rep, rep).dim == end_dim

    def test_length_two_reduces_to_hom_space(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (2, 1), seed=2)
        n = hmod.random_locally_free(b2, 2, 3, (1, 1), seed=3)
        x = flagvar.TensorModule((m,), ())
        y = flagvar.TensorModule((n,), ())
        assert flagvar.hom_tensor(x, y).dim == homext.hom_space(m, n).dim


def reference_hom_tensor(x, y):
    """The slotwise assembly of the tensor Hom system: the intertwiner
    blocks of each slot pair, then one np.kron block per connector square
    f_(t+1, i) @ mu^x_i == mu^y_i @ f_(t, i).  Returns the system and the
    flat offsets of the f_(t, i)."""
    slots = len(x.slots)
    offsets = []
    total = 0
    for t in range(slots):
        off_t = []
        for i in range(x.slots[t].n):
            off_t.append(total)
            total += y.slots[t].dims[i] * x.slots[t].dims[i]
        offsets.append(off_t)
    blocks = []
    for t in range(slots):
        blocks.extend(reference_intertwiner_rows(
            x.slots[t], y.slots[t], offsets[t], total))
    p = x.slots[0].p
    for t in range(slots - 1):
        mx = x.connectors[t]
        my = y.connectors[t]
        for i in range(x.slots[t].n):
            h = y.slots[t + 1].dims[i] * x.slots[t].dims[i]
            if h == 0:
                continue
            block = np.zeros((h, total), dtype=np.int64)
            w_next = y.slots[t + 1].dims[i] * x.slots[t + 1].dims[i]
            if w_next:
                block[:, offsets[t + 1][i]:offsets[t + 1][i] + w_next] = \
                    np.kron(la.identity(y.slots[t + 1].dims[i]), mx[i].T)
            w_cur = y.slots[t].dims[i] * x.slots[t].dims[i]
            if w_cur:
                block[:, offsets[t][i]:offsets[t][i] + w_cur] = (
                    block[:, offsets[t][i]:offsets[t][i] + w_cur]
                    - np.kron(my[i], la.identity(x.slots[t].dims[i]))) % p
            blocks.append(block % p)
    system = (np.concatenate(blocks, axis=0) if blocks
              else la.zeros(0, total))
    return system, [off for off_t in offsets for off in off_t]


def _oracle_tensor_pairs(a2, b2, a3):
    """Tensor pairs of flags with 2, 3 and 4 steps, their mod-eps
    reductions, and repetitive modules."""
    cases = [
        (n_module(a2, 2, 2), [[(1, 1), (1, 1)], [(1, 0), (0, 1), (1, 1)],
                              [(1, 0), (0, 1), (1, 0), (0, 1)]]),
        (hmod.random_locally_free(b2, 2, 2, (2, 2), seed=6),
         [[(1, 1), (1, 1)], [(1, 0), (0, 1), (1, 1)],
          [(1, 0), (0, 1), (1, 0), (0, 1)]]),
        (hmod.random_locally_free(a3, 2, 2, (1, 2, 1), seed=5),
         [[(1, 0, 0), (0, 2, 1)], [(1, 0, 0), (0, 1, 0), (0, 1, 1)],
          [(1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)]]),
    ]
    pairs = []
    for m, seqs in cases:
        for brseq in seqs:
            flags = list(itertools.islice(flagvar.iter_flags(m, brseq), 3))
            assert flags
            for flag in flags:
                x, y = flagvar._flag_tensor_modules(m, flag)
                pairs.append((x, y))
                pairs.append((reference_mod_epsilon_tensor(x),
                              reference_mod_epsilon_tensor(y)))
        for l in (2, 3, 4):
            rep = flagvar.repetitive_module(m, l)
            pairs.append((rep, rep))
    return pairs


class TestTensorHomOracles:
    def test_matches_reference_assembly(self, a2, b2, a3):
        for x, y in _oracle_tensor_pairs(a2, b2, a3):
            system, _ = reference_hom_tensor(x, y)
            want, support = (la.kernel_basis_and_support(system, x.p)
                             if system.shape[1] else (la.zeros(0, 0), ()))
            basis = flagvar.hom_tensor(x, y)
            assert basis.vec_basis.shape == want.shape
            assert np.array_equal(basis.vec_basis, want)
            assert basis.support == support

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_flag_pairs_match_dense(self, a2, b2, b2_rev, data):
        datum = data.draw(st.sampled_from([a2, b2, b2_rev]))
        k = data.draw(st.integers(1, 2))
        p = data.draw(st.sampled_from((2, 3)))
        r = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
        m = hmod.random_locally_free(datum, k, p, r,
                                     seed=data.draw(st.integers(0, 2 ** 16)))
        first = tuple(data.draw(st.integers(0, ri)) for ri in r)
        second = tuple(data.draw(st.integers(0, ri - a))
                       for ri, a in zip(r, first))
        rest = tuple(ri - a - b for ri, a, b in zip(r, first, second))
        pairs = [(flagvar.repetitive_module(m, 3),) * 2]
        for flag in itertools.islice(
                flagvar.iter_flags(m, [first, second, rest]), 2):
            x, y = flagvar._flag_tensor_modules(m, flag)
            pairs += [(x, y), (reference_mod_epsilon_tensor(x),
                               reference_mod_epsilon_tensor(y))]
        for x, y in pairs:
            assert_matches_dense(flagvar.hom_tensor(x, y), x, y)

    def test_substitution_check_covers_connectors(self, a2, monkeypatch):
        m = hmod.random_locally_free(a2, 2, 3, (1, 1), seed=1)
        rep = flagvar.repetitive_module(m, 3)
        # identity on the first slot, zero on the second: both slot maps
        # are homomorphisms, the connector square does not commute
        ident = homext.identity_hom(m)
        zero = tuple(0 * f for f in ident)
        assert homext.is_homomorphism(m, m, ident)
        assert homext.is_homomorphism(m, m, zero)
        # the same element over ring unknowns: every vertex of rep has
        # Jordan loops, so each f_v is its ring matrix, coefficient lists
        # in descending degree
        bad = np.concatenate([
            hmod.matrix_to_ring(f, m.loop_order(i % m.n),
                                m.loop_order(i % m.n))[..., ::-1].reshape(-1)
            for i, f in enumerate(ident + zero)])
        original = la.kernel_basis_and_support

        def with_bad_row(a, p):
            basis, support = original(a, p)
            return np.vstack([basis, bad]), support

        monkeypatch.setattr(la, "kernel_basis_and_support", with_bad_row)
        with pytest.raises(InternalCheckError, match="mu_1->2"):
            flagvar.hom_tensor(rep, rep)


class TestTangent:
    def test_zero_bottom_flag(self, a2):
        m = rigid_module(a2, 1, 3, (1, 1))
        flags = flagvar.enumerate_flags(m, [(0, 0), (1, 1)])
        assert len(flags) == 1
        assert flagvar.tangent_dimension(m, flags[0]) == 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_rigid_tangent_equals_level_k_form(self, a2, b2, k):
        for datum in (a2, b2):
            for r, brseq in [((1, 1), [(1, 0), (0, 1)]),
                             ((2, 1), [(1, 0), (1, 1)]),
                             ((1, 2), [(0, 1), (1, 1)])]:
                m = rigid_module(datum, k, 2, r, seed=5)
                expected = sum(
                    euler_form(datum, a, b, k=k)
                    for idx, a in enumerate(brseq)
                    for b in brseq[idx + 1:])
                for flag in flagvar.enumerate_flags(m, brseq):
                    assert flagvar.tangent_dimension(m, flag) == expected

    def test_singular_point_tangent_jump(self, a2):
        n1 = n_module(a2, 1, 2)
        seq = brvec([(1, 1), (1, 1)])
        singular = flagvar.FlagOfSubmodules(
            n1, seq, ((line_submodule(n1, 0, [0]),
                       line_submodule(n1, 1, [0])),))
        singular.validate()
        assert flagvar.tangent_dimension(n1, singular) == 2
        # a smooth point on the same variety has tangent dimension 1
        smooth = flagvar.FlagOfSubmodules(
            n1, seq, ((line_submodule(n1, 0, [1]),
                       line_submodule(n1, 1, [0])),))
        smooth.validate()
        assert flagvar.tangent_dimension(n1, smooth) == 1

    def test_three_step_flag(self, a2):
        m = rigid_module(a2, 2, 3, (2, 1), seed=6)
        brseq = [(1, 0), (1, 0), (0, 1)]
        expected = sum(euler_form(a2, a, b, k=2)
                       for idx, a in enumerate(brseq)
                       for b in brseq[idx + 1:])
        flags = flagvar.enumerate_flags(m, brseq)
        assert flags
        for flag in flags:
            assert flagvar.tangent_dimension(m, flag) == expected


class TestReduceFlag:
    def test_layers_project(self, a2):
        m = n_module(a2, 2, 2)
        flags = flagvar.enumerate_flags(m, [(1, 1), (1, 1)])
        red = reduction.reduce(m).module
        for flag in flags:
            image = flagvar.reduce_flag(m, flag)
            assert image.brseq == flag.brseq
            image.validate()
            assert hmod.modules_equal(image.module, red)

    def test_zero_and_full_layers(self, a2):
        n2 = n_module(a2, 2, 2)
        red = reduction.reduce(n2).module
        for brseq in ([(0, 0), (2, 2)], [(2, 2), (0, 0)]):
            flags = flagvar.enumerate_flags(n2, brseq)
            assert len(flags) == 1
            image = flagvar.reduce_flag(n2, flags[0])
            layer = image.layers[0]
            want = 0 if brseq[0] == (0, 0) else red.dims[0]
            assert layer[0].dim == want

    def test_golden_far_chart_reduction(self, a2):
        # U_{eps a, eps b} reduces to the singular point ([1:0], [1:0])
        n2 = n_module(a2, 2, 2)
        seq = brvec([(1, 1), (1, 1)])
        for a_c, b_c in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            flag = flagvar.FlagOfSubmodules(
                n2, seq, ((line_submodule(n2, 0, [0, a_c]),
                           line_submodule(n2, 1, [0, b_c])),))
            flag.validate()
            image = flagvar.reduce_flag(n2, flag)
            red = reduction.reduce(n2).module
            expected = (line_submodule(red, 0, [0]),
                        line_submodule(red, 1, [0]))
            assert image.layers[0] == expected


class TestFiberOfReduction:
    def test_rigid_fibers_nonempty_with_dimension(self, a2, b2):
        for datum in (a2, b2):
            for r, brseq in [((1, 1), [(1, 0), (0, 1)]),
                             ((2, 1), [(1, 0), (1, 1)])]:
                d = flag_dimension(datum, brseq)
                for k in (2, 3):
                    m = rigid_module(datum, k, 2, r, seed=7)
                    base_flags = flagvar.enumerate_flags(
                        reduction.reduce(m).module, brseq)
                    for base in base_flags:
                        fib = flagvar.fiber_of_reduction(m, base)
                        assert not fib.empty
                        assert fib.dimension == d

    def test_known_empty_fiber(self, a2):
        n3 = n_module(a2, 3, 2)
        base_mod = reduction.reduce(n3).module
        seq = brvec([(1, 1), (1, 1)])
        u_ee = flagvar.FlagOfSubmodules(
            base_mod, seq, ((line_submodule(base_mod, 0, [0, 1]),
                             line_submodule(base_mod, 1, [0, 1])),))
        u_ee.validate()
        fib = flagvar.fiber_of_reduction(n3, u_ee)
        assert fib.empty

    @pytest.mark.parametrize("b_c", [0, 1])
    def test_known_two_dimensional_fiber(self, a2, b_c):
        n3 = n_module(a2, 3, 2)
        base_mod = reduction.reduce(n3).module
        seq = brvec([(1, 1), (1, 1)])
        base = flagvar.FlagOfSubmodules(
            base_mod, seq, ((line_submodule(base_mod, 0, [0, 0]),
                             line_submodule(base_mod, 1, [0, b_c])),))
        base.validate()
        fib = flagvar.fiber_of_reduction(n3, base)
        assert not fib.empty and fib.dimension == 2
        for codes in itertools.product(range(2), repeat=fib.dimension):
            flag = fib.flag_at(np.asarray(codes, dtype=np.int64))
            image = flagvar.reduce_flag(n3, flag)
            assert image.layers == base.layers

    @pytest.mark.parametrize("k", [2, 3])
    def test_fibers_partition_top_count(self, a2, k):
        top = n_module(a2, k, 2)
        base_mod = reduction.reduce(top).module
        brseq = [(1, 1), (1, 1)]
        total = 0
        empties = 0
        for base in flagvar.enumerate_flags(base_mod, brseq):
            fib = flagvar.fiber_of_reduction(top, base)
            if fib.empty:
                empties += 1
            else:
                total += fib.point_count()
        assert total == flagvar.point_count(top, brseq)
        assert (empties > 0) == (k == 3)

    def test_nonsurjectivity_detected_at_level_three(self, a2):
        top = n_module(a2, 3, 2)
        base_mod = reduction.reduce(top).module
        empties = [base for base in flagvar.enumerate_flags(
            base_mod, [(1, 1), (1, 1)])
            if flagvar.fiber_of_reduction(top, base).empty]
        assert empties

    def test_trivial_length_one_fiber(self, a2):
        m = n_module(a2, 2, 2)
        base_mod = reduction.reduce(m).module
        base = flagvar.enumerate_flags(base_mod, [(2, 2)])[0]
        fib = flagvar.fiber_of_reduction(m, base)
        assert not fib.empty and fib.dimension == 0
        assert fib.flag_at(np.zeros(0, dtype=np.int64)).length == 1

    def test_wrong_base_module_rejected(self, a2):
        n3 = n_module(a2, 3, 2)
        other = hmod.free_module(a2, 2, 2, (2, 2))
        flags = flagvar.enumerate_flags(other, [(1, 1), (1, 1)])
        with pytest.raises(FlagNotInReduction):
            flagvar.fiber_of_reduction(n3, flags[0])

    def test_three_step_fiber(self, a2):
        m = rigid_module(a2, 2, 2, (2, 1), seed=8)
        brseq = [(1, 0), (1, 0), (0, 1)]
        d = flag_dimension(a2, brseq)
        base_mod = reduction.reduce(m).module
        total = 0
        for base in flagvar.enumerate_flags(base_mod, brseq):
            fib = flagvar.fiber_of_reduction(m, base)
            assert not fib.empty and fib.dimension == d
            total += fib.point_count()
        assert total == flagvar.point_count(m, brseq)


def reference_operator_to_ring(coords, g):
    """One operator: its ring matrix read off the generator columns, then
    rebuilt entry by entry and compared with the conjugated operator."""
    p, m, k = coords.p, coords.m, coords.k
    conj = ((coords.basis_inv @ (g % p)) % p @ coords.basis) % p
    ring = np.zeros((m, m, k), dtype=np.int64)
    for s in range(m):
        ring[:, s, :] = conj[:, s * k].reshape(m, k)
    rebuilt = np.zeros_like(conj)
    for sp in range(m):
        for s in range(m):
            for tau in range(k):
                for t in range(k - tau):
                    rebuilt[sp * k + tau + t, s * k + t] = ring[sp, s, tau]
    if ((rebuilt - conj) % p).any():
        raise InternalCheckError("operator does not commute")
    return ring


def reference_lift_system(m, base):
    """The fiber system assembled one generator at a time: looped ring
    conversion, (rows, cols, k) ring products and one np.kron block per
    generator.  Returns (system, rhs), or None for a zero chain."""
    red = reduction.reduce(m)
    mbar = red.module
    slots = base.length - 1
    p, k = m.p, m.k
    offsets, total = reference_total_blocks([m] * slots)
    eps_blocks = hmod.epsilon_blocks(m)
    eps_total = la.zeros(total, total)
    for t in range(slots):
        for i in range(m.n):
            off = offsets[(t, i)]
            eps_total[off:off + m.dims[i], off:off + m.dims[i]] = \
                eps_blocks[i]
    coords = flagvar._CentralCoordinates(eps_total, k, p)
    bar_offsets, bar_total = reference_total_blocks([mbar] * slots)
    base_rows = []
    rho_total = la.zeros(bar_total, total)
    for t in range(slots):
        for i in range(m.n):
            off = bar_offsets[(t, i)]
            for row in base.layers[t][i].basis:
                full = la.zeros(1, bar_total)
                full[0, off:off + mbar.dims[i]] = row
                base_rows.append(full[0])
            rho_total[off:off + mbar.dims[i],
                      offsets[(t, i)]:offsets[(t, i)] + m.dims[i]] = \
                red.projections[i]
    z_total = len(base_rows) // (k - 1)
    low = [s * k + t for s in range(coords.m) for t in range(k - 1)]
    tbar = (rho_total @ coords.basis[:, low]) % p
    tbar_inv = la.inv(tbar, p)
    if z_total == 0:
        return None
    amat = np.zeros((coords.m, z_total, k - 1), dtype=np.int64)
    residuals = la.zeros(0, coords.m)
    picked = 0
    for row in base_rows:
        vec = ((tbar_inv @ row) % p).reshape(coords.m, k - 1)
        if picked == z_total:
            break
        trial = np.concatenate([residuals, vec[:, 0].reshape(1, -1)])
        if la.rank(trial, p) > residuals.shape[0]:
            residuals = trial
            amat[:, picked, :] = vec
            picked += 1
    if picked != z_total:
        raise FlagNotInReduction("base chain is not free over the center")
    _, _, piv = la.rref(amat[:, :, 0].T, p)
    pivot_rows = list(piv)
    other_rows = [q for q in range(coords.m) if q not in pivot_rows]
    amat = reference_rmul(amat, reference_rinv(amat[pivot_rows], p), p)
    sbar = np.zeros((len(other_rows), z_total, k), dtype=np.int64)
    sbar[:, :, :k - 1] = amat[other_rows]
    s0 = sbar[:, :, 0]
    blocks, rhs = [], []
    for gmat in reference_generators(m, slots, offsets, total):
        ring = reference_operator_to_ring(coords, gmat)
        pm = ring[pivot_rows][:, pivot_rows]
        qm = ring[pivot_rows][:, other_rows]
        rm = ring[other_rows][:, pivot_rows]
        tm = ring[other_rows][:, other_rows]
        resid = (rm + reference_rmul(tm, sbar, p)
                 - reference_rmul(sbar, pm, p)
                 - reference_rmul(sbar, reference_rmul(qm, sbar, p), p)) % p
        if resid[:, :, :k - 1].any():
            raise FlagNotInReduction("base chain is not invariant")
        rhs.append(((-resid[:, :, k - 1]) % p).reshape(-1))
        left = (tm[:, :, 0] - s0 @ qm[:, :, 0]) % p
        right = (pm[:, :, 0] + qm[:, :, 0] @ s0) % p
        blocks.append((np.kron(left, la.identity(z_total))
                       - np.kron(la.identity(len(other_rows)), right.T))
                      % p)
    return np.concatenate(blocks), np.concatenate(rhs)


def _lift_cases(a2, b2, a3, kronecker):
    """(m, base): A2, B2, A3 and Kronecker modules at k = 2 and 3 over their
    first base flags of 2- and 3-step sequences, and the N-module, whose
    level-3 fibers include empty ones."""
    specs = [
        (a2, (2, 1), [[(1, 0), (1, 1)], [(1, 0), (1, 0), (0, 1)]]),
        (b2, (2, 1), [[(1, 1), (1, 0)], [(0, 1), (1, 0), (1, 0)]]),
        (kronecker, (1, 1), [[(1, 0), (0, 1)], [(0, 1), (1, 0)]]),
        (a3, (1, 1, 1), [[(1, 0, 0), (0, 1, 1)],
                         [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]),
    ]
    cases = []
    for datum, r, seqs in specs:
        for k in (2, 3):
            m = hmod.random_locally_free(datum, k, 2, r, seed=(41, k))
            mods = [(m, seqs)]
            if datum is a2:
                mods.append((n_module(a2, k, 2), [[(1, 1), (1, 1)]]))
            for mod, mod_seqs in mods:
                bar = reduction.reduce(mod).module
                for brseq in mod_seqs:
                    for base in itertools.islice(
                            flagvar.iter_flags(bar, brseq), 6):
                        cases.append((mod, base))
    return cases


def _outcome(build, *args):
    try:
        return build(*args)
    except FlagNotInReduction as exc:
        return type(exc)


def _memo_lift_system(m, base):
    data = flagvar._reduction_data(m)
    return flagvar._lift_system(
        flagvar._chain_data(m, data, base.length - 1), base)


def _assert_same_system(m, base):
    """The stacked system equals the reference; returns what the fiber
    is: "zero chain", "not in reduction", "empty" or "affine"."""
    want = _outcome(reference_lift_system, m, base)
    lift = _outcome(_memo_lift_system, m, base)
    if want is None or want is FlagNotInReduction:
        assert lift is want
        return "zero chain" if want is None else "not in reduction"
    system, rhs = want
    assert lift.system.shape == system.shape
    assert np.array_equal(lift.system, system)
    assert np.array_equal(lift.rhs, rhs)
    return "empty" if la.solve(system, rhs, m.p) is None else "affine"


class TestFiberAssembly:
    def test_matches_per_generator_reference(self, a2, b2, a3, kronecker):
        cases = _lift_cases(a2, b2, a3, kronecker)
        kinds = collections.Counter(_assert_same_system(m, base)
                                    for m, base in cases)
        assert {base.length for _, base in cases} == {2, 3}
        assert kinds["empty"] > 0 and kinds["affine"] > 20

    def test_matches_reference_at_largest_prime(self, a2):
        p = la.MAX_PRIME
        m = hmod.random_locally_free(a2, 2, p, (2, 1), seed=3)
        bar = reduction.reduce(m).module
        seen = 0
        for brseq in ([(1, 0), (1, 1)], [(1, 0), (1, 0), (0, 1)]):
            for base in itertools.islice(flagvar.iter_flags(bar, brseq), 3):
                assert _assert_same_system(m, base) == "affine"
                fib = flagvar.fiber_of_reduction(m, base)
                assert not fib.empty
                assert fib.dimension == fib.expected_dimension
                seen += 1
        assert seen == 6

    def test_generator_stack_matches_reference(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (2, 1), seed=4)
        for slots in (1, 2, 3):
            offsets, total = reference_total_blocks([m] * slots)
            stack = flagvar._algebra_generators(m, slots)
            want = reference_generators(m, slots, offsets, total)
            assert stack.shape == (len(want), total, total)
            assert all(np.array_equal(g, w) for g, w in zip(stack, want))

    def test_operator_to_ring_checks_every_operator(self, b2):
        m = hmod.random_locally_free(b2, 3, 3, (2, 1), seed=4)
        offsets, total = reference_total_blocks([m, m])
        eps_total = la.zeros(total, total)
        for (t, i), off in offsets.items():
            eps_total[off:off + m.dims[i], off:off + m.dims[i]] = \
                hmod.epsilon_blocks(m)[i]
        coords = flagvar._CentralCoordinates(eps_total, 3, 3)
        gens = flagvar._algebra_generators(m, 2)
        rings = coords.operator_to_ring(gens)
        for g, ring in zip(gens, rings):
            assert np.array_equal(ring, reference_operator_to_ring(coords, g))
        # one unit matrix that does not commute with eps, anywhere in the
        # stack, fails the whole stack
        bad = la.zeros(total, total)
        bad[0, 1] = 1
        assert ((bad @ eps_total - eps_total @ bad) % 3).any()
        for at in (0, len(gens) // 2, len(gens)):
            stack = np.insert(gens, at, bad, axis=0)
            with pytest.raises(InternalCheckError, match="commute"):
                coords.operator_to_ring(stack)


def _fiber_case(a2):
    m = rigid_module(a2, 2, 2, (2, 1), seed=8)
    bar = reduction.reduce(m).module
    return m, flagvar.enumerate_flags(bar, [(1, 0), (1, 0), (0, 1)])


class TestFiberChecks:
    """Each check of fiber_of_reduction raises once its input is broken."""

    def test_unbroken(self, a2):
        m, bases = _fiber_case(a2)
        assert all(not flagvar.fiber_of_reduction(m, b).empty for b in bases)

    def test_invariance_below_top_degree(self, a2, monkeypatch):
        m, bases = _fiber_case(a2)
        original = flagvar._CentralCoordinates.operator_to_ring

        def shifted(self, ops):
            rings = original(self, ops).copy()
            rings[-1, :, :, 0] = (rings[-1, :, :, 0] + 1) % self.p
            return rings

        monkeypatch.setattr(flagvar._CentralCoordinates, "operator_to_ring",
                            shifted)
        with pytest.raises(FlagNotInReduction, match="invariant"):
            flagvar.fiber_of_reduction(m, bases[0])

    def test_chart_normalization(self, a2, monkeypatch):
        m, bases = _fiber_case(a2)
        monkeypatch.setattr(flagvar, "_rinv", lambda a, p: 0 * a)
        with pytest.raises(InternalCheckError, match="normalization"):
            flagvar.fiber_of_reduction(m, bases[0])

    def test_hom_cross_check(self, a2, monkeypatch):
        m, bases = _fiber_case(a2)
        original = flagvar._fiber_expected_dimension
        monkeypatch.setattr(flagvar, "_fiber_expected_dimension",
                            lambda mbar, base: original(mbar, base) + 1)
        with pytest.raises(InternalCheckError, match="cross-check"):
            flagvar.fiber_of_reduction(m, bases[0])

    def test_invalid_base_rejected(self, a2):
        m, bases = _fiber_case(a2)
        bar = bases[0].module
        full = tuple(la.Subspace.full(d, bar.p) for d in bar.dims)
        broken = flagvar.FlagOfSubmodules(bar, bases[0].brseq,
                                          (full,) + bases[0].layers[1:])
        with pytest.raises(FlagNotInReduction, match="base flag invalid"):
            flagvar.fiber_of_reduction(m, broken)

    def test_built_flags_validated(self, a2, monkeypatch):
        m, bases = _fiber_case(a2)
        fib = flagvar.fiber_of_reduction(m, bases[0])

        def zero_rows(self, ring_mat):
            return la.zeros(ring_mat.shape[1] * self.k, self.dim)

        monkeypatch.setattr(flagvar._CentralCoordinates,
                            "ring_columns_to_rows", zero_rows)
        with pytest.raises(ValidationError):
            fib.flag_at(np.zeros(fib.dimension, dtype=np.int64))
        with pytest.raises(ValidationError):
            flagvar.fiber_of_reduction(m, bases[0])

    def test_reduced_particular_validated(self, a2, monkeypatch):
        m, bases = _fiber_case(a2)
        bar = bases[0].module
        original = flagvar._reduced_flag
        # the base flag still reaches the shadow; only the particular
        # solution, a flag of m, comes back broken
        monkeypatch.setattr(flagvar, "_reduced_flag",
                            lambda red, flag: flagvar.FlagOfSubmodules(
                                bar, flag.brseq, ())
                            if flag.module is m else original(red, flag))
        # caught by the comparison with the base, not by a flag check
        with pytest.raises(InternalCheckError, match="reduce to base"):
            flagvar.fiber_of_reduction(m, bases[0])

    def test_particular_reduces_to_base(self, a2, monkeypatch):
        m, bases = _fiber_case(a2)
        assert len(bases) > 1
        other = flagvar.reduce_flag(
            m, flagvar.fiber_of_reduction(m, bases[1]).particular)
        assert other.layers != bases[0].layers
        monkeypatch.setattr(flagvar, "_reduced_flag",
                            lambda red, flag: other)
        with pytest.raises(InternalCheckError, match="reduce to base"):
            flagvar.fiber_of_reduction(m, bases[0])


class TestBundleRatio:
    @pytest.mark.parametrize("k", [2, 3])
    def test_rigid_instances(self, a2, k):
        m = rigid_module(a2, k, 2, (1, 1), seed=9)
        rep = flagvar.bundle_ratio_check(m, [(1, 0), (0, 1)], primes=(2, 3))
        assert rep.all_ok

    def test_trivial_padded_sequence(self, a2):
        m = rigid_module(a2, 2, 2, (1, 1), seed=9)
        rep = flagvar.bundle_ratio_check(m, [(1, 1), (0, 0)], primes=(2, 3))
        assert rep.fiber_exponent == 0
        assert rep.all_ok

    def test_non_rigid_failure_reported(self, a2):
        n3 = n_module(a2, 3, 2)
        rep = flagvar.bundle_ratio_check(n3, [(1, 1), (1, 1)],
                                         primes=(2, 3))
        # the ambient module is not rigid; the exact ratio fails and the
        # report says so without raising
        assert not any(row["rigid"] for row in rep.rows)
        assert not rep.all_ok
        assert rep.ok_for_rigid

    def test_no_primes_rejected(self, a2):
        # an empty report would pass both verdicts with no evidence
        m = rigid_module(a2, 2, 2, (1, 1), seed=9)
        with pytest.raises(NotEnoughPrimes):
            flagvar.bundle_ratio_check(m, [(1, 0), (0, 1)], primes=())

    @pytest.mark.parametrize("brseq", [[], [(1, 0, 0), (0, 1, 0)]])
    def test_malformed_brseq_rejected(self, a2, brseq):
        m = rigid_module(a2, 2, 2, (1, 1), seed=9)
        with pytest.raises(LengthMismatch):
            flagvar.bundle_ratio_check(m, brseq)


class TestCountingPolynomial:
    def test_n_module_quadratic(self, a2):
        n1 = n_module(a2, 1, 5)
        table = flagvar.counting_polynomial(n1, [(1, 1), (1, 1)])
        assert table.polynomial == (1, 2)
        assert table.chi_estimate == 3
        assert table.counts[2] == 5 and table.counts[3] == 7

    @pytest.mark.parametrize("r,brseq,chi", [
        ((1, 1), [(1, 0), (0, 1)], 1),
        ((2, 1), [(1, 0), (1, 1)], 2),
    ])
    def test_rigid_chi_stable_across_k(self, a2, r, brseq, chi):
        values = []
        for k in (1, 2):
            m = rigid_module(a2, k, 2, r, seed=10)
            table = flagvar.counting_polynomial(m, brseq)
            values.append(table.chi_estimate)
        assert values[0] == values[1] == chi

    def test_single_point_table(self, a2):
        m = rigid_module(a2, 2, 2, (1, 1), seed=10)
        table = flagvar.counting_polynomial(m, [(1, 0), (0, 1)])
        assert table.polynomial == (1,)
        assert table.chi_estimate == 1

    def test_degree_bound_too_low_rejected(self, a2):
        n2 = n_module(a2, 2, 5)
        with pytest.raises((NonIntegerCoefficient, OverdeterminedMismatch)):
            flagvar.counting_polynomial(n2, [(1, 1), (1, 1)],
                                        degree_bound=1)

    def test_not_enough_primes(self, a2):
        n1 = n_module(a2, 1, 5)
        with pytest.raises(NotEnoughPrimes):
            flagvar.counting_polynomial(n1, [(1, 1), (1, 1)], primes=(2,))

    def test_table_serialization(self, a2):
        n1 = n_module(a2, 1, 5)
        table = flagvar.counting_polynomial(n1, [(1, 1), (1, 1)])
        data = table.to_dict()
        assert data["chi_estimate"] == 3
        csv = table.to_csv()
        assert csv.startswith("q,count\n")
        assert "2,5" in csv


class TestCountMonotonicity:
    @pytest.mark.parametrize("k", [2, 3])
    def test_top_count_at_least_image_count(self, a2, k):
        # the reduction map is defined on every flag, so the top count
        # bounds the size of the image downstairs
        top = n_module(a2, k, 2)
        brseq = [(1, 1), (1, 1)]
        images = {tuple(flagvar.reduce_flag(top, f).layers)
                  for f in flagvar.enumerate_flags(top, brseq)}
        assert flagvar.point_count(top, brseq) >= len(images)


class TestTwistedData:
    """Flag machinery on data whose oriented pair twists (f_ij > 1)."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_counts_match_enumeration(self, b2_rev, g2, k):
        for datum in (b2_rev, g2):
            m = hmod.random_locally_free(datum, k, 2, (2, 1), seed=20)
            for e in [(1, 0), (0, 1), (1, 1), (2, 0)]:
                assert (flagvar.count_locally_free_submodules(m, e)
                        == len(flagvar.enumerate_locally_free_submodules(
                            m, e)))

    def test_rigid_flags_and_fibers(self, b2_rev):
        m = homext.find_rigid(b2_rev, 2, 2, (1, 1), trials=40,
                              seed=21).module
        from cartanquiver.cartan import euler_form, flag_dimension

        for brseq in ([(1, 0), (0, 1)], [(0, 1), (1, 0)]):
            d = flag_dimension(b2_rev, brseq)
            expected_tangent = euler_form(b2_rev, brseq[0], brseq[1], k=2)
            base_mod = reduction.reduce(m).module
            total = 0
            for base in flagvar.enumerate_flags(base_mod, brseq):
                fib = flagvar.fiber_of_reduction(m, base)
                assert not fib.empty and fib.dimension == d
                total += fib.point_count()
            assert total == flagvar.point_count(m, brseq)
            for flag in flagvar.enumerate_flags(m, brseq):
                assert flagvar.tangent_dimension(m, flag) == expected_tangent

    def test_krull_schmidt_twisted(self, b2_rev, g2):
        from cartanquiver import gendecomp

        for datum in (b2_rev, g2):
            e = hmod.free_module(datum, 2, 2, (1, 1))
            ks = gendecomp.krull_schmidt(e, seed=22)
            assert ks.rank_multiset() == ((0, 1), (1, 0))


class TestMoreCrossChecks:
    def test_chi_stable_b_type(self, b2):
        values = []
        for k in (1, 2):
            m = homext.find_rigid(b2, k, 2, (1, 2), trials=40,
                                  seed=30).module
            table = flagvar.counting_polynomial(m, [(1, 1), (0, 1)])
            values.append(table.chi_estimate)
        assert values[0] == values[1] == 2

    def test_fiber_partition_without_rigidity(self, kronecker):
        # the partition of the top count by fibers needs no rigidity
        m = hmod.random_locally_free(kronecker, 2, 2, (1, 1), seed=33)
        brseq = [(1, 0), (0, 1)]
        base_mod = reduction.reduce(m).module
        total = 0
        for base in flagvar.enumerate_flags(base_mod, brseq):
            fib = flagvar.fiber_of_reduction(m, base)
            total += fib.point_count()
        assert total == flagvar.point_count(m, brseq)

    def test_fiber_partition_random_modules(self, a2, b2):
        for datum in (a2, b2):
            for t in range(3):
                m = hmod.random_locally_free(datum, 2, 2, (1, 1),
                                             seed=(34, t))
                brseq = [(1, 0), (0, 1)]
                base_mod = reduction.reduce(m).module
                total = 0
                for base in flagvar.enumerate_flags(base_mod, brseq):
                    total += flagvar.fiber_of_reduction(m, base).point_count()
                assert total == flagvar.point_count(m, brseq)
