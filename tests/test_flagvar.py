import collections
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    NotLocallyFree,
    NotPrime,
    OverdeterminedMismatch,
    RankTooLarge,
    ValidationError,
)

from conftest import (
    CentralCoordinates,
    assert_matches_dense,
    golden_module,
    line_submodule,
    n_module,
    reference_fiber_of_reduction,
    reference_flag_tensor_modules,
    reference_generators,
    reference_intertwiner_rows,
    reference_mod_epsilon_tensor,
    reference_total_blocks,
    scrambled,
)
from reference_linalg import chart_block, chart_count, chart_table


def brvec(seq):
    return tuple(RankVector(r) for r in seq)


def rigid_module(datum, k, p, r, seed=0):
    res = homext.find_rigid(datum, k, p, r, trials=50, seed=seed)
    assert res.found()
    return res.module


def ring_charts(m_order, r, e, p):
    """All charts of one key, in chart order, as ring matrices."""
    return list(chart_block(m_order, r, e, p, 0,
                            chart_count(m_order, r, e, p)))


def new_table(key, start, stop):
    """Charts start, ..., stop - 1 of a key as a `flagvar._CandidateTable`
    of the reference rows and pivot columns (`chart_table`)."""
    return flagvar._CandidateTable(key[3], *chart_table(*key, start, stop))


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
        assert produced == closed == flagvar._vertex_candidates(
            m_order, r, e, p).charts

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


def corrupt_stack(affine):
    """A copy of a key's stack whose unit row of the first pattern's last
    free coefficient has a 1 at the pattern's first pivot column, where
    every unit row is 0: a chart of that pattern whose last digit is
    non-zero has 1 + that digit, not a 1, at the pivot of its first row.
    The copy keeps the stack's pivots array."""
    rows = affine.rows.copy()
    unit = affine.bounds[1] - 1
    assert unit > 0 and rows[unit, 0, affine.pivots[unit, 0]] == 0
    rows[unit, 0, affine.pivots[unit, 0]] = 1
    return affine._replace(rows=rows)


TABLE_KEYS = [(m_order, r, e, p)
              for m_order in range(1, 5) for r in range(4)
              for e in range(r + 1) for p in (2, 3, 5)
              if chart_count(m_order, r, e, p) <= 2000]


class TestCandidateTables:
    def test_tables_match_per_chart_reference(self):
        for key in TABLE_KEYS:
            m_order, r, e, p = key
            charts = list(reference_charts(*key))
            assert len(charts) == flagvar._vertex_candidates(*key).charts, key
            produced = ring_charts(*key)
            assert len(produced) == len(charts), key
            for want, got in zip(charts, produced):
                assert np.array_equal(want, got), key
            # the entry keeps its table up to _BLOCK_TEST_CHARTS charts
            entry = flagvar._vertex_candidates(*key)
            assert (entry.table is None) == (
                len(charts) > flagvar._BLOCK_TEST_CHARTS), key
            table = (entry.table if entry.table is not None
                     else flagvar._new_table(entry.affine, p))
            got_subs = [table.subspace(t) for t in range(len(table.basis))]
            assert len(got_subs) == len(charts), key
            for mat, got in zip(charts, got_subs):
                want = reference_subspace(mat, m_order, r, p)
                assert got == want, key
                assert np.array_equal(got.basis, want.basis), key
                assert got.pivots == want.pivots, key
                assert got.basis.dtype == want.basis.dtype, key
                assert hash(got) == hash(want), key

    @pytest.mark.parametrize("threshold", [pytest.param(None, id="default"),
                                           pytest.param(50, id="50")])
    def test_blocks_match_chart_reference(self, monkeypatch, threshold):
        # every table the search reads (a key's one block), evaluated from
        # the key's stack, holds the rows and pivot columns of the
        # per-chart reference, byte for byte and read-only; a key over
        # _BLOCK_TEST_CHARTS (default or 50) keeps no table
        if threshold is not None:
            monkeypatch.setattr(flagvar, "_BLOCK_TEST_CHARTS", threshold)
        flagvar._vertex_candidates.cache_clear()
        kept = 0
        try:
            for key in TABLE_KEYS:
                entry = flagvar._vertex_candidates(*key)
                if entry.table is None:
                    assert entry.charts > flagvar._BLOCK_TEST_CHARTS, key
                    continue
                kept += 1
                want = chart_table(*key, 0, entry.charts)
                for got, ref in zip((entry.table.basis, entry.table.pivots),
                                    want):
                    assert got.dtype == ref.dtype, key
                    assert got.shape == ref.shape, key
                    assert got.tobytes() == ref.tobytes(), key
                    assert not got.flags.writeable, key
        finally:
            flagvar._vertex_candidates.cache_clear()
        assert 0 < kept < len(TABLE_KEYS)

    def test_table_is_read_only(self):
        key = (2, 2, 1, 3)
        table = flagvar._vertex_candidates(*key).table
        charts = ring_charts(*key)
        # the table holds the chart rows themselves, unreduced
        assert np.array_equal(table.basis,
                              flagvar._chart_rows(np.array(charts), key[0]))
        for t, chart in enumerate(charts):
            sub = table.subspace(t)
            # reduced on first use, canonical, and kept
            assert table.subspace(t) is sub
            want = reference_subspace(chart, 2, 2, 3)
            assert sub == want and sub.pivots == want.pivots
            assert np.array_equal(sub.basis, want.basis)
            for arr in (table.basis, table.pivots, sub.basis):
                with pytest.raises(ValueError):
                    arr[...] = 0

    def test_chart_counts_match_closed_form(self):
        # every key's count, read off its affine stack, is the number of
        # free rank-e submodules of a free rank-r column over
        # F_q[x]/(x^m): q^((m-1) e (r-e)) times the Gaussian binomial
        keys = [(m_order, r, e, q) for m_order in range(1, 7)
                for r in range(5) for e in range(r + 1) for q in (2, 3, 5)]
        assert len(keys) == 270
        flagvar._vertex_candidates.cache_clear()
        try:
            for m_order, r, e, q in keys:
                closed = (q ** ((m_order - 1) * e * (r - e))
                          * la.gaussian_binomial(r, e, q))
                entry = flagvar._vertex_candidates(m_order, r, e, q)
                assert entry.charts == closed, (m_order, r, e, q)
        finally:
            flagvar._vertex_candidates.cache_clear()

    def test_stack_holds_every_chart(self):
        # the affine stack of a key holds p^(slots) charts per pattern,
        # as many in all as the key's closed-form count
        flagvar._vertex_candidates.cache_clear()
        try:
            keys = [(m_order, r, e, q) for m_order in range(1, 5)
                    for r in range(4) for e in range(r + 1) for q in (2, 3)]
            for m_order, r, e, q in keys:
                entry = flagvar._vertex_candidates(m_order, r, e, q)
                bounds = entry.affine.bounds
                assert entry.charts == sum(
                    q ** (hi - lo - 1) for lo, hi in zip(bounds, bounds[1:]))
        finally:
            flagvar._vertex_candidates.cache_clear()

    def test_uncoupled_vertex_builds_no_entry(self, a3):
        # arrow 2 -> 3 is inactive (layer 2 is full), so vertex 3 is
        # counted in closed form, and its key (2, 3, 1, 3) gets no entry
        m = hmod.random_locally_free(a3, 2, 3, (2, 1, 3), seed=1)
        flagvar._vertex_candidates.cache_clear()
        try:
            count = flagvar.count_locally_free_submodules(m, (1, 1, 1))
            misses = flagvar._vertex_candidates.cache_info().misses
            flagvar._vertex_candidates(2, 3, 1, 3)
            assert flagvar._vertex_candidates.cache_info().misses == (
                misses + 1)
            assert count == len(list(
                flagvar.iter_locally_free_submodules(m, (1, 1, 1))))
        finally:
            flagvar._vertex_candidates.cache_clear()

    def test_one_pattern_walk_per_entry(self, monkeypatch, a2, b2):
        # a key's pivot patterns are walked once, where its entry is
        # built; the count's first layer (1, 1) keeps its arrow active, so
        # the count builds entries (an uncoupled vertex builds none)
        calls = []
        original = flagvar._chart_patterns

        def counting(*key):
            calls.append(key)
            return original(*key)

        monkeypatch.setattr(flagvar, "_chart_patterns", counting)
        flagvar._vertex_candidates.cache_clear()
        try:
            m = rigid_module(b2, 2, 3, (2, 1))
            flagvar.point_count(m, [(1, 1), (1, 0)])
            list(flagvar.iter_flags(n_module(a2, 2, 3), [(1, 1), (0, 1)]))
            for key in [(2, 2, 1, 3), (4, 3, 1, 2), (1, 1, 1, 2)] * 2:
                flagvar._vertex_candidates(*key)
            info = flagvar._vertex_candidates.cache_info()
            assert info.misses > 3 and info.hits > 0
            assert len(calls) == info.misses
            assert len(set(calls)) == len(calls)
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
                table = flagvar._vertex_candidates(1, 1, 1, q).table
                assert len(table.basis) == 1
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
        first = list(flagvar.iter_locally_free_submodules(m, (1, 1)))
        misses = flagvar._vertex_candidates.cache_info().misses
        assert misses == 1          # both vertices share the key (2, 2, 1, 3)
        flagvar._vertex_candidates.cache_clear()
        assert flagvar._vertex_candidates.cache_info().currsize == 0
        again = list(flagvar.iter_locally_free_submodules(m, (1, 1)))
        assert flagvar._vertex_candidates.cache_info().misses == misses
        assert again == first

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_closure_on_chart_rows_matches_subspaces(self, a2, b2, b2_rev,
                                                     kronecker, data):
        # closure masks read off the unreduced chart rows equal the masks
        # of Subspace.contains_rows on the canonical subspaces, for a
        # window of candidates at one vertex against a chart at the other
        datum = data.draw(st.sampled_from([a2, b2, b2_rev, kronecker]))
        k = data.draw(st.integers(1, 4))
        p = data.draw(st.sampled_from((2, 3, 5)))
        r = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        m = hmod.random_locally_free(datum, k, p, r,
                                     seed=data.draw(st.integers(0, 2 ** 16)))
        keys = [(m.loop_order(i), r[i], data.draw(st.integers(0, r[i])), p)
                for i in range(2)]
        assume(all(key[0] <= 4 for key in keys))
        v = data.draw(st.integers(0, 1))
        w = 1 - v
        counts = [chart_count(*key) for key in keys]
        start = data.draw(st.integers(0, counts[v] - 1))
        stop = min(counts[v], start + data.draw(st.integers(1, 40)))
        block = new_table(keys[v], start, stop)
        s = data.draw(st.integers(0, counts[w] - 1))
        other = new_table(keys[w], s, s + 1)
        charts = chart_block(*keys[v], start, stop)
        subs = [reference_subspace(c, keys[v][0], r[v], p) for c in charts]
        assert [block.subspace(t) for t in range(len(block.basis))] == subs
        assert all(block.subspace(t).pivots == sub.pivots
                   for t, sub in enumerate(subs))
        chosen = reference_subspace(
            chart_block(*keys[w], s, s + 1)[0], keys[w][0], r[w], p)
        assert other.subspace(0) == chosen
        # the module's arrows between v and w, and (as closure under them
        # is rare) a map of rank <= 1 each way
        tests = [(i, j, a) for (i, j), mats in m.arrows.items()
                 for a in mats if {i, j} == {v, w}]
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        for i, j in [(v, w), (w, v)]:
            a = (rng.integers(0, p, (m.dims[i], 1))
                 @ rng.integers(0, p, (1, m.dims[j]))) % p
            tests.append((i, j, a))
        for part in [[test] for test in tests] + [tests]:
            got = flagvar._closed(block, v, part, {w: flagvar._Chart(
                other.basis[0], other.pivots[0])})
            want = [all((sub if i == v else chosen).contains_rows(
                            (a @ (chosen if i == v else sub).basis.T).T)
                        for i, j, a in part) for sub in subs]
            assert got.tolist() == want

    def test_rank_check(self):
        # charts 0-8 are codes 0-8 of the first pattern (two free
        # coefficients over F_3): codes 3 and on have a non-zero last digit
        affine = flagvar._vertex_candidates(2, 2, 1, 3).affine
        flagvar._new_table(affine, 3)
        with pytest.raises(InternalCheckError):
            flagvar._new_table(corrupt_stack(affine), 3)


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


def sorted_tuples(tuples):
    """Tuples of subspaces in one fixed order: the search visits vertices
    by chart count and solves large keys, so it does not yield in the
    product order of the reference."""
    return sorted(tuples, key=lambda tup: [(s.pivots, s.basis.tobytes())
                                           for s in tup])


def assert_same_submodules(m, e):
    want = brute_force_submodules(m, e)
    got = list(flagvar.iter_locally_free_submodules(m, e))
    assert len(got) == len(want), (m.dims, e)
    assert sorted_tuples(got) == sorted_tuples(want), (m.dims, e)
    assert flagvar.count_locally_free_submodules(m, e) == len(want)


class TestClosureSearchOracle:
    @pytest.mark.parametrize("name", ["a2", "b2", "b2_rev", "kronecker"])
    def test_two_vertex_modules(self, request, name):
        datum = request.getfixturevalue(name)
        ranks = [(2, 1), (1, 2), (2, 2)]
        ps = (2, 3) if name != "b2" else (2,)
        for m, e in _search_cases(datum, ranks, ps=ps):
            assert_same_submodules(m, e)

    def test_three_vertex_modules(self, a3):
        # at (2, 2, 2) the search places the adjacent vertices 1 and 2
        # before vertex 3, whose level must not test their arrow again
        for m, e in _search_cases(a3, [(1, 1, 1), (1, 2, 1), (2, 1, 1),
                                       (2, 2, 2)], ps=(2,)):
            assert_same_submodules(m, e)


class TestStreamedCandidates:
    """Keys over _BLOCK_TEST_CHARTS keep no table: their closed charts are
    solved per pivot pattern and built a batch at a time, with the same
    counts and the same sets of submodules and flags as the tables."""

    @staticmethod
    def answers(cases):
        return [(collections.Counter(
                     flagvar.iter_locally_free_submodules(m, e)),
                 flagvar.count_locally_free_submodules(m, e),
                 collections.Counter(f.layers
                                     for f in flagvar.iter_flags(m, brseq)),
                 flagvar.point_count(m, brseq))
                for m, e, brseq in cases]

    @pytest.mark.parametrize("threshold", [0, 1, 40])
    def test_streamed_matches_cached(self, a2, b2, monkeypatch, threshold):
        cases = [(n_module(a2, 2, 3), (1, 1), [(1, 1), (1, 1)]),
                 (rigid_module(b2, 2, 2, (2, 1), seed=5), (1, 1),
                  [(1, 0), (1, 1)]),
                 (rigid_module(a2, 2, 2, (2, 1), seed=6), (1, 0),
                  [(1, 0), (1, 0), (0, 1)]),
                 (rigid_module(b2, 3, 2, (2, 1), seed=5), (1, 1),
                  [(1, 0), (1, 1)])]
        flagvar._vertex_candidates.cache_clear()
        try:
            cached = self.answers(cases)
            monkeypatch.setattr(flagvar, "_BLOCK_TEST_CHARTS", threshold)
            flagvar._vertex_candidates.cache_clear()
            got = self.answers(cases)
            for want, have in zip(cached, got):
                assert have == want
                # no submodule or flag is yielded twice
                assert all(n == 1 for n in have[0].values())
                assert all(n == 1 for n in have[2].values())
            # a key keeps its table up to the threshold: at 1 only the
            # single-chart keys (zero and full layers) do, and the 96
            # charts of vertex 1 of the B2 module at k = 3 are streamed
            # at every threshold
            for key in [(2, 2, 1, 3), (4, 2, 1, 2), (2, 2, 1, 2),
                        (6, 2, 1, 2)]:
                entry = flagvar._vertex_candidates(*key)
                assert (entry.table is None) == (
                    chart_count(*key) > threshold), key
            assert cached[3][3] == 96
        finally:
            flagvar._vertex_candidates.cache_clear()

    def test_early_stop_builds_one_block(self, a2, monkeypatch):
        # vertex 1 of the free module has 392 charts (its first pattern
        # 343), none closure-tested: a stream stopped after its first
        # chart has built one batch of 64, and a full one batches of at
        # most 64 covering every chart once
        built = []
        original = flagvar._pattern_rows

        def counting(affine, lo, hi, coeffs):
            built.append(len(coeffs))
            return original(affine, lo, hi, coeffs)

        monkeypatch.setattr(flagvar, "_pattern_rows", counting)
        m = hmod.free_module(a2, 3, 7, (2, 1))
        flagvar._vertex_candidates.cache_clear()
        try:
            # both entries built first: vertex 2's table of one chart
            assert flagvar._vertex_candidates(3, 2, 1, 7).table is None
            assert len(flagvar._vertex_candidates(3, 1, 0, 7).table.basis) == 1
            built.clear()
            stream = flagvar.iter_locally_free_submodules(m, (1, 0))
            next(stream)
            stream.close()
            assert built == [64]
            built.clear()
            subs = list(flagvar.iter_locally_free_submodules(m, (1, 0)))
            assert len(subs) == len(set(subs)) == sum(built) == 392
            assert max(built) == 64
        finally:
            flagvar._vertex_candidates.cache_clear()


class TestEntryConstants:
    """A key's chart count and whether it keeps a table are read off the
    constants once, when its entry is built: changing a constant while
    entries are cached gives the answers of a cold-cache run."""

    @staticmethod
    def answers(modules):
        return [(flagvar.count_locally_free_submodules(m, (1, 1)),
                 flagvar.point_count(m, [(1, 0), (0, 1), (1, 1)]),
                 collections.Counter(f.layers for f in flagvar.iter_flags(
                     m, [(1, 1), (1, 1)])))
                for m in modules]

    @pytest.mark.parametrize("name, before, after", [
        ("_BLOCK_TEST_CHARTS", 0, 10 ** 18),
        ("_BLOCK_TEST_CHARTS", 10 ** 18, 0),
    ])
    def test_constant_changed_while_cached(self, a2, monkeypatch, name,
                                           before, after):
        modules = [rigid_module(a2, 2, 3, (2, 2)), n_module(a2, 2, 3)]
        flagvar._vertex_candidates.cache_clear()
        try:
            want = self.answers(modules)
            assert [a[0] for a in want] == [12, 27]
            monkeypatch.setattr(flagvar, name, before)
            flagvar._vertex_candidates.cache_clear()
            assert self.answers(modules) == want
            monkeypatch.setattr(flagvar, name, after)
            assert self.answers(modules) == want      # entries built before
            flagvar._vertex_candidates.cache_clear()
            assert self.answers(modules) == want      # entries built after
        finally:
            flagvar._vertex_candidates.cache_clear()


class TestSubmoduleEnumeration:
    def test_zero_and_full(self, b2):
        m = hmod.random_locally_free(b2, 2, 3, (2, 1), seed=0)
        zero = list(flagvar.iter_locally_free_submodules(m, (0, 0)))
        assert len(zero) == 1 and all(s.dim == 0 for s in zero[0])
        full = list(flagvar.iter_locally_free_submodules(m, (2, 1)))
        assert len(full) == 1
        assert all(s.dim == m.dims[i] for i, s in enumerate(full[0]))

    @pytest.mark.parametrize("q", [2, 3])
    def test_n_module_grassmannian(self, a2, q):
        subs = list(flagvar.iter_locally_free_submodules(
            n_module(a2, 1, q), (1, 1)))
        assert len(subs) == 2 * q + 1

    @pytest.mark.parametrize("q,k", [(2, 2), (3, 2)])
    def test_n_module_higher_level(self, a2, q, k):
        # open chart pairs (a, b) with a*b = 0, plus 2 q^(k-1) points on
        # the far charts
        count = len(list(flagvar.iter_locally_free_submodules(
            n_module(a2, k, q), (1, 1))))
        u_locus = sum(1 for a, b in itertools.product(
            range(q ** k), repeat=2)
            if _trunc_mul(a, b, k, q) == 0)
        assert count == u_locus + 2 * q ** (k - 1)

    def test_rank_too_large(self, a2):
        with pytest.raises(RankTooLarge):
            list(flagvar.iter_locally_free_submodules(
                hmod.free_module(a2, 1, 2, (1, 1)), (2, 0)))

    def test_budget_guardrail(self, a2, monkeypatch):
        # vertex 1 has 3 candidate lines in F_2^2; no arrow is active
        m = hmod.free_module(a2, 1, 2, (2, 1))
        monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 1)
        with pytest.raises(BudgetExceeded, match="VERTEX_CANDIDATE_BUDGET"):
            list(flagvar.iter_locally_free_submodules(m, (1, 0)))
        # a count with no active arrow is a closed-form product
        assert flagvar.count_locally_free_submodules(m, (1, 0)) == 3
        monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 3)
        assert len(list(flagvar.iter_locally_free_submodules(m, (1, 0)))) == 3

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
        subs = list(flagvar.iter_locally_free_submodules(scrambled, (1, 1)))
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
                    want = len(list(flagvar.iter_locally_free_submodules(
                        m, e)))
                    assert got == want

    def test_count_with_zero_arrows(self, a2):
        # free module: every arrow inactive, the count is a pure product
        e = hmod.free_module(a2, 2, 3, (2, 1))
        assert (flagvar.count_locally_free_submodules(e, (1, 1))
                == chart_count(2, 2, 1, 3) * chart_count(2, 1, 1, 3))

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
                assert counts[-1] == len(list(flagvar.iter_flags(m, brseq)))
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
        flags = list(flagvar.iter_flags(m, [(1, 1), (1, 1)]))
        subs = list(flagvar.iter_locally_free_submodules(m, (1, 1)))
        assert len(flags) == len(subs)
        assert {f.layers[0] for f in flags} == set(map(tuple, subs))

    def test_unique_composition_series_no_arrows(self, no_arrows):
        for q in (2, 3):
            e = hmod.free_module(no_arrows, 1, q, (1, 1))
            flags = list(flagvar.iter_flags(e, [(1, 0), (0, 1)]))
            assert len(flags) == 1

    def test_wrong_total_rank_empty(self, a2):
        m = hmod.free_module(a2, 1, 2, (1, 1))
        assert list(flagvar.iter_flags(m, [(1, 0), (1, 0)])) == []

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
            for flag in flagvar.iter_flags(m, brseq):
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
            list(flagvar.iter_flags(m, self.SHORT))

    def test_validate_and_reduce_flag(self, a2):
        m = n_module(a2, 2, 2)
        flag = list(flagvar.iter_flags(m, [(1, 1), (1, 1)]))[0]
        short = flagvar.FlagOfSubmodules(m, brvec(self.SHORT), flag.layers)
        with pytest.raises(LengthMismatch):
            short.validate()
        with pytest.raises(LengthMismatch):
            flagvar.reduce_flag(m, short)

    def test_fiber_of_reduction(self, a2):
        m = n_module(a2, 2, 2)
        bar = reduction.reduce(m).module
        base = list(flagvar.iter_flags(bar, [(1, 1), (1, 1)]))[0]
        short = flagvar.FlagOfSubmodules(bar, brvec(self.SHORT), base.layers)
        with pytest.raises(LengthMismatch):
            flagvar.fiber_of_reduction(m, short)


class TestTensorModules:
    def test_repetitive_module(self, a2):
        """(M, M, M) with identity connectors: the maps of each slot at
        the vertices t*n + i, then the connectors (t, i) -> (t+1, i)."""
        m = golden_module(a2, 2, 5)
        rep = flagvar.TensorModule((m,) * 3, (homext.identity_hom(m),) * 2)
        assert rep.dims == m.dims * 3
        own = m.maps_with_labels()
        maps = rep.maps_with_labels()
        assert len(maps) == 3 * len(own) + 2 * m.n
        for t in range(3):
            for (label, x, i, j), (got, y, a, b) in zip(
                    own, maps[t * len(own):]):
                assert (got, a, b) == (f"{label} in slot {t + 1}",
                                       t * m.n + i, t * m.n + j)
                assert y is x
        assert [(label, a, b) for label, _, a, b in maps[3 * len(own):]] == [
            (f"mu_{t + 1}->{t + 2} at vertex {i + 1}", (t + 1) * m.n + i,
             t * m.n + i) for t in range(2) for i in range(m.n)]

    def test_repetitive_end_matches_end(self, a2, b2):
        for datum in (a2, b2):
            m = hmod.random_locally_free(datum, 2, 3, (1, 1), seed=1)
            end_dim = homext.hom_space(m, m).dim
            for l in (2, 3, 4):
                rep = flagvar.TensorModule(
                    (m,) * (l - 1), (homext.identity_hom(m),) * (l - 2))
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
                x, y = reference_flag_tensor_modules(m, flag)
                pairs.append((x, y))
                pairs.append((reference_mod_epsilon_tensor(x),
                              reference_mod_epsilon_tensor(y)))
        for l in (2, 3, 4):
            rep = flagvar.TensorModule(
                (m,) * (l - 1), (homext.identity_hom(m),) * (l - 2))
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
        rep = flagvar.TensorModule((m,) * 2, (homext.identity_hom(m),))
        pairs = [(rep, rep)]
        for flag in itertools.islice(
                flagvar.iter_flags(m, [first, second, rest]), 2):
            x, y = reference_flag_tensor_modules(m, flag)
            pairs += [(x, y), (reference_mod_epsilon_tensor(x),
                               reference_mod_epsilon_tensor(y))]
        for x, y in pairs:
            assert_matches_dense(flagvar.hom_tensor(x, y), x, y)

    def test_substitution_check_covers_connectors(self, a2, monkeypatch):
        m = hmod.random_locally_free(a2, 2, 3, (1, 1), seed=1)
        rep = flagvar.TensorModule((m,) * 2, (homext.identity_hom(m),))
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
        flags = list(flagvar.iter_flags(m, [(0, 0), (1, 1)]))
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
                for flag in flagvar.iter_flags(m, brseq):
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
        flags = list(flagvar.iter_flags(m, brseq))
        assert flags
        for flag in flags:
            assert flagvar.tangent_dimension(m, flag) == expected


class TestReduceFlag:
    def test_layers_project(self, a2):
        m = n_module(a2, 2, 2)
        flags = list(flagvar.iter_flags(m, [(1, 1), (1, 1)]))
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
            flags = list(flagvar.iter_flags(n2, brseq))
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
                    base_flags = list(flagvar.iter_flags(
                        reduction.reduce(m).module, brseq))
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
    def test_fibers_partition_top_count(self, a2, b2, kronecker, k):
        """Over all base flags the fiber point counts sum to point_count at
        level k, which the closure search finds without any fiber code:
        on the N-module, and on random non-rigid direct sums over B2
        (c = (2, 1)), Kronecker (parallel arrows, also in a scrambled
        basis) and A2, B2 and Kronecker with 3-step sequences."""
        def pair(datum, r, s):
            return hmod.direct_sum(
                hmod.random_locally_free(datum, k, 2, r, seed=(1, 1)),
                hmod.random_locally_free(datum, k, 2, s, seed=(1, 2)))

        kron = pair(kronecker, (1, 1), (1, 1))
        cases = [
            (n_module(a2, k, 2), [(1, 1), (1, 1)]),
            (pair(b2, (1, 1), (1, 1)), [(1, 1), (1, 1)]),
            (kron, [(1, 1), (1, 1)]),
            (scrambled(kron, np.random.default_rng(k)), [(1, 1), (1, 1)]),
            (pair(a2, (1, 1), (1, 1)), [(1, 0), (0, 1), (1, 1)]),
            (pair(b2, (1, 1), (1, 0)), [(1, 0), (0, 1), (1, 0)]),
            (kron, [(1, 0), (0, 1), (1, 1)]),
        ]
        empties = []
        for top, brseq in cases:
            assert not homext.is_rigid(top)
            base_mod = reduction.reduce(top).module
            total = 0
            empty = 0
            for base in flagvar.iter_flags(base_mod, brseq):
                fib = flagvar.fiber_of_reduction(top, base)
                if fib.empty:
                    empty += 1
                else:
                    total += fib.point_count()
            assert total == flagvar.point_count(top, brseq)
            empties.append(empty)
        assert (empties[0] > 0) == (k == 3)
        assert sum(map(bool, empties[1:])) >= 4

    def test_nonsurjectivity_detected_at_level_three(self, a2):
        top = n_module(a2, 3, 2)
        base_mod = reduction.reduce(top).module
        empties = [base for base in flagvar.iter_flags(
            base_mod, [(1, 1), (1, 1)])
            if flagvar.fiber_of_reduction(top, base).empty]
        assert empties

    def test_trivial_length_one_fiber(self, a2):
        m = n_module(a2, 2, 2)
        base_mod = reduction.reduce(m).module
        base = list(flagvar.iter_flags(base_mod, [(2, 2)]))[0]
        fib = flagvar.fiber_of_reduction(m, base)
        assert not fib.empty and fib.dimension == 0
        assert len(fib.flag_at(np.zeros(0, dtype=np.int64)).brseq) == 1

    def test_wrong_base_module_rejected(self, a2):
        n3 = n_module(a2, 3, 2)
        other = hmod.free_module(a2, 2, 2, (2, 2))
        flags = list(flagvar.iter_flags(other, [(1, 1), (1, 1)]))
        with pytest.raises(FlagNotInReduction):
            flagvar.fiber_of_reduction(n3, flags[0])

    def test_three_step_fiber(self, a2):
        m = rigid_module(a2, 2, 2, (2, 1), seed=8)
        brseq = [(1, 0), (1, 0), (0, 1)]
        d = flag_dimension(a2, brseq)
        base_mod = reduction.reduce(m).module
        total = 0
        for base in flagvar.iter_flags(base_mod, brseq):
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


def _lift_cases(a2, b2, a3, kronecker):
    """(m, base): A2, B2, A3 and Kronecker modules at k = 2 and 3 over F_2
    and F_3 (where -a != a, so a sign slip in the fiber system shows) over
    their first base flags of 2- and 3-step sequences, and the N-module,
    whose level-3 fibers include empty ones."""
    specs = [
        (a2, (2, 1), [[(1, 0), (1, 1)], [(1, 0), (1, 0), (0, 1)]]),
        (b2, (2, 1), [[(1, 1), (1, 0)], [(0, 1), (1, 0), (1, 0)]]),
        (kronecker, (1, 1), [[(1, 0), (0, 1)], [(0, 1), (1, 0)]]),
        (a3, (1, 1, 1), [[(1, 0, 0), (0, 1, 1)],
                         [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]),
    ]
    cases = []
    for datum, r, seqs in specs:
        for k, p in itertools.product((2, 3), (2, 3)):
            m = hmod.random_locally_free(datum, k, p, r, seed=(41, k))
            mods = [(m, seqs)]
            if datum is a2:
                mods.append((n_module(a2, k, p), [[(1, 1), (1, 1)]]))
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


def _points(fib, p):
    """The layers of every point of a non-empty fiber, each once."""
    points = [fib.flag_at(np.array(c, dtype=np.int64)).layers
              for c in itertools.product(range(p), repeat=fib.dimension)]
    assert len(set(points)) == len(points)
    return set(points)


def _assert_same_fiber(m, base):
    """The fiber equals the ring-chart reference in emptiness, dimension
    and particular flag, and in its point set; returns what it is:
    "not in reduction", "empty", "point" or "affine"."""
    want = _outcome(reference_fiber_of_reduction, m, base)
    got = _outcome(flagvar.fiber_of_reduction, m, base)
    if want is FlagNotInReduction:
        assert got is want
        return "not in reduction"
    assert ((got.empty, got.dimension, got.expected_dimension)
            == (want.empty, want.dimension, want.expected_dimension))
    if want.empty:
        return "empty"
    assert got.particular.layers == want.particular.layers
    assert _points(got, m.p) == _points(want, m.p)
    return "affine" if want.dimension else "point"


class TestFiberAssembly:
    def test_matches_per_generator_reference(self, a2, b2, a3, kronecker):
        """The layer system gives the fibers of the ring chart over the
        center, assembled from one matrix per generator of the repetitive
        chain module."""
        cases = _lift_cases(a2, b2, a3, kronecker)
        kinds = collections.Counter(_assert_same_fiber(m, base)
                                    for m, base in cases)
        assert {len(base.brseq) for _, base in cases} == {2, 3}
        assert kinds["empty"] > 0 and kinds["affine"] > 20

    def test_rows_from_one_dense_assembly(self, a2, b2, a3, kronecker,
                                          monkeypatch):
        """Each fiber takes its rows from one `homext.intertwiner_rows`
        call of its own, beside the solves of its Hom cross-check: on
        dense unknowns (every order 1, no built-in relation, one phi per
        layer and vertex), with one relation per loop and arrow of each
        layer and per vertex of each identity between layers."""
        calls = []
        cross_checks = []
        rows = homext.intertwiner_rows
        expected = flagvar._fiber_expected_dimension

        def recorded(relations, layout, p):
            if not cross_checks:
                calls.append((relations, layout))
            return rows(relations, layout, p)

        def cross_check(shadow, base):
            cross_checks.append(base)
            try:
                return expected(shadow, base)
            finally:
                cross_checks.pop()

        monkeypatch.setattr(homext, "intertwiner_rows", recorded)
        monkeypatch.setattr(flagvar, "_fiber_expected_dimension", cross_check)
        for m, base in _lift_cases(a2, b2, a3, kronecker):
            del calls[:]
            flagvar.fiber_of_reduction(m, base)
            [(relations, layout)] = calls
            layers = len(base.layers)
            assert layout.orders == (1,) * (layers * m.n)
            assert layout.built_in == frozenset()
            assert len(relations) == (layers * len(m.maps_with_labels())
                                      + (layers - 1) * m.n)

    def test_matches_reference_at_largest_prime(self, a2):
        """At MAX_PRIME, where no fiber can be listed: the same dimension
        and particular flag as the reference, and distinct coefficient
        vectors give distinct flags that reduce to the base."""
        p = la.MAX_PRIME
        m = hmod.random_locally_free(a2, 2, p, (2, 1), seed=3)
        bar = reduction.reduce(m).module
        rng = np.random.default_rng(5)
        seen = 0
        for brseq in ([(1, 0), (1, 1)], [(1, 0), (1, 0), (0, 1)]):
            for base in itertools.islice(flagvar.iter_flags(bar, brseq), 3):
                want = reference_fiber_of_reduction(m, base)
                fib = flagvar.fiber_of_reduction(m, base)
                assert not fib.empty and fib.dimension > 0
                assert fib.dimension == fib.expected_dimension
                assert fib.dimension == want.dimension
                assert fib.particular.layers == want.particular.layers
                coeffs = rng.integers(0, p, size=(3, fib.dimension))
                flags = [fib.flag_at(c) for c in coeffs]
                assert len({f.layers for f in flags}) == 3
                for flag in flags:
                    assert flagvar.reduce_flag(m, flag).layers == base.layers
                seen += 1
        assert seen == 6

    def test_operator_to_ring_checks_every_operator(self, b2):
        """The ring-chart reference: its central coordinates convert each
        generator of the repetitive chain module as the entry-by-entry
        rebuild does, and refuse a stack with one operator that does not
        commute with eps."""
        m = hmod.random_locally_free(b2, 3, 3, (2, 1), seed=4)
        offsets, total = reference_total_blocks([m, m])
        eps_total = la.zeros(total, total)
        for (t, i), off in offsets.items():
            eps_total[off:off + m.dims[i], off:off + m.dims[i]] = \
                hmod.epsilon_blocks(m)[i]
        coords = CentralCoordinates(eps_total, 3, 3)
        gens = np.stack(reference_generators(m, 2, offsets, total))
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


def _fiber_case(a2, k=2):
    """A rigid A2 module over F_2 and its 3-step base flags; at k = 2 each
    fiber system is one zero equation, at k = 3 it has rank 1."""
    m = rigid_module(a2, k, 2, (2, 1), seed=8)
    bar = reduction.reduce(m).module
    return m, list(flagvar.iter_flags(bar, [(1, 0), (1, 0), (0, 1)]))


def wrong_sub_block(monkeypatch, base):
    """From now on the kept check of `base` hands out, for the first loop
    on its first layer, a sub block that is off by the identity: the
    residue of that loop then leaves eps^(k-1) M."""
    original = flagvar.FlagOfSubmodules._check

    def check(self):
        splits, conn = original(self)
        if self is not base:
            return splits, conn
        sides, ((sub, quot), *rest) = splits[0]
        wrong = (sub + la.identity(sub.shape[0])) % self.module.p
        return [(sides, [(wrong, quot), *rest]), *splits[1:]], conn

    monkeypatch.setattr(flagvar.FlagOfSubmodules, "_check", check)


def off_solution(monkeypatch, particular: bool):
    """From now on la.solve adds, to the particular solution or to the
    first kernel vector, a unit vector that the system does not send to
    zero: the flags built from it are not flags of submodules."""
    original = la.solve

    def solve(a, b, p):
        part, kernel = original(a, b, p)
        unit = la.identity(a.shape[1])[np.flatnonzero(a.any(axis=0))[0]]
        if particular:
            return (part + unit) % p, kernel
        return part, np.concatenate([(kernel[:1] + unit) % p, kernel[1:]])

    monkeypatch.setattr(la, "solve", solve)


class TestFiberChecks:
    """Each check of fiber_of_reduction raises once its input is broken."""

    def test_unbroken(self, a2):
        m, bases = _fiber_case(a2)
        assert all(not flagvar.fiber_of_reduction(m, b).empty for b in bases)

    def test_invariance_below_top_degree(self, a2, monkeypatch):
        """The residue of a map on the base flag must lie in the top
        degree eps^(k-1) M."""
        m, bases = _fiber_case(a2)
        wrong_sub_block(monkeypatch, bases[0])
        with pytest.raises(FlagNotInReduction, match="invariant"):
            flagvar.fiber_of_reduction(m, bases[0])
        assert not flagvar.fiber_of_reduction(m, bases[1]).empty

    def test_free_over_the_center(self, a2, monkeypatch):
        """eps^(k-1) of the preimage of each base layer must have 1/(k-1)
        of its dimension; with zero blocks of eps^(k-1) it is zero."""
        m, bases = _fiber_case(a2)
        data = flagvar._reduction_data(m)
        zero = dataclasses.replace(data, blocks=tuple(
            np.zeros_like(b) for b in data.blocks))
        monkeypatch.setitem(flagvar._REDUCTION_DATA, m, zero)
        with pytest.raises(FlagNotInReduction, match="free over the center"):
            flagvar.fiber_of_reduction(m, bases[0])

    def test_hom_cross_check(self, a2, monkeypatch):
        m, bases = _fiber_case(a2)
        original = flagvar._fiber_expected_dimension
        monkeypatch.setattr(flagvar, "_fiber_expected_dimension",
                            lambda mbar, base: original(mbar, base) + 1)
        with pytest.raises(InternalCheckError, match="cross-check"):
            flagvar.fiber_of_reduction(m, bases[0])

    def test_solve_substitution(self, a2, monkeypatch):
        """la.solve substitutes its solution into the fiber system: an
        elimination that shifts the right-hand side is caught there."""
        m, bases = _fiber_case(a2, 3)
        original_solve, original_rref = la.solve, la.rref

        def shifted(a, p):
            r, rank, pivots = original_rref(a, p)
            r = r.copy()
            r[:, -1] = (r[:, -1] + 1) % p
            return r, rank, pivots

        def solve(a, b, p):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(la, "rref", shifted)
                return original_solve(a, b, p)

        monkeypatch.setattr(la, "solve", solve)
        with pytest.raises(InternalCheckError, match="substitution"):
            flagvar.fiber_of_reduction(m, bases[0])

    def test_invalid_base_rejected(self, a2):
        m, bases = _fiber_case(a2)
        bar = bases[0].module
        full = tuple(la.Subspace.from_rows(la.identity(d), d, bar.p)
                     for d in bar.dims)
        broken = flagvar.FlagOfSubmodules(bar, bases[0].brseq,
                                          (full,) + bases[0].layers[1:])
        with pytest.raises(FlagNotInReduction, match="base flag invalid"):
            flagvar.fiber_of_reduction(m, broken)

    def test_built_flags_validated(self, a2, monkeypatch):
        """Every built flag is checked: a particular solution or a kernel
        vector off the solutions builds layers that are not invariant."""
        m, bases = _fiber_case(a2, 3)
        with pytest.MonkeyPatch.context() as mp:
            off_solution(mp, particular=False)
            fib = flagvar.fiber_of_reduction(m, bases[0])
        assert fib.dimension > 0
        with pytest.raises(ValidationError):
            fib.flag_at(la.identity(fib.dimension)[0])
        off_solution(monkeypatch, particular=True)
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

    def test_repeated_prime_rejected(self, a2):
        # before, primes (2, 2) reported the q = 2 row twice
        m = rigid_module(a2, 2, 2, (1, 1), seed=9)
        with pytest.raises(ValidationError, match="primes must be distinct"):
            flagvar.bundle_ratio_check(m, [(1, 0), (0, 1)], primes=(2, 2))

    @pytest.mark.parametrize("brseq", [[], [(1, 0, 0), (0, 1, 0)]])
    def test_malformed_brseq_rejected(self, a2, brseq):
        m = rigid_module(a2, 2, 2, (1, 1), seed=9)
        with pytest.raises(LengthMismatch):
            flagvar.bundle_ratio_check(m, brseq)

    def test_reduction_not_locally_free_raises(self, a2):
        # the loop 3 x is free over F_5 and zero mod 3: the module at q = 3
        # is not locally free, which is an error, not a row of the report
        free = hmod.free_module(a2, 2, 5, (1, 0))
        m = hmod.make_module(a2, 2, 5, [(3 * free.eps[0]) % 5, free.eps[1]],
                             free.arrows)
        assert hmod.is_locally_free(m)
        with pytest.raises(NotLocallyFree, match=(
                r"^module is not locally free: vertex 1 has dim 2, loop "
                r"order 2 and loop rank 0$")):
            flagvar.bundle_ratio_check(m, [(1, 0)], primes=(2, 3))


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


class TestPrimesCheckedBeforeCounting:
    """Bad primes and a negative degree bound are refused before the first
    `point_count`; before, each was found only after counting."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        original = flagvar.point_count

        def recording(m, brseq):
            calls.append(m.p)
            return original(m, brseq)

        monkeypatch.setattr(flagvar, "point_count", recording)
        return calls

    @pytest.mark.parametrize("primes,error,needle", [
        # counted at 3, 3, 5 and 7, then "interpolation points must be
        # distinct"
        ((3, 3, 5, 7, 11, 13), ValidationError, "primes must be distinct"),
        # counted at 2 and 3, then NotPrime
        ((2, 3, 4, 5, 7, 11), NotPrime, "modulus 4 is not prime"),
        # before, a bare TypeError ("has no len()")
        (5, ValidationError, "bad primes"),
    ])
    def test_counting_polynomial_primes(self, a2, counted, primes, error,
                                        needle):
        n2 = n_module(a2, 2, 5)     # degree bound 2: primes 1-4 counted
        with pytest.raises(error, match=needle):
            flagvar.counting_polynomial(n2, [(1, 1), (1, 1)], primes=primes)
        assert counted == []
        # only the primes it counts are checked
        flagvar.counting_polynomial(n2, [(1, 1), (1, 1)],
                                    primes=(2, 3, 5, 7, 7, 4))
        assert counted == [2, 3, 5, 7]

    def test_negative_degree_bound(self, a2, counted):
        # before, counted once, then "need 0 points"
        with pytest.raises(ValidationError, match="degree_bound must be"):
            flagvar.counting_polynomial(n_module(a2, 2, 5), [(1, 1), (1, 1)],
                                        degree_bound=-1)
        assert counted == []

    @pytest.mark.parametrize("primes,error", [
        ((3, 2, 3), ValidationError),
        ((2, 4), NotPrime),      # before, counted at 2, then NotPrime
        (5, ValidationError)])   # before, a bare TypeError
    def test_bundle_ratio_primes(self, a2, counted, primes, error):
        m = rigid_module(a2, 2, 2, (1, 1), seed=9)
        with pytest.raises(error):
            flagvar.bundle_ratio_check(m, [(1, 0), (0, 1)], primes=primes)
        assert counted == []

    def test_check_primes(self):
        assert flagvar.check_primes([5, 2]) == (5, 2)
        assert flagvar.check_primes(()) == ()
        with pytest.raises(ValidationError, match=r"got \(2, 3, 2\)"):
            flagvar.check_primes([2, 3, 2])

    def test_primes_may_be_an_iterator(self, a2):
        """An iterator of primes is read as the tuple it yields: before,
        counting_polynomial raised a bare TypeError ("has no len()")."""
        m = n_module(a2, 2, 5)
        seq = [(1, 1), (1, 1)]
        primes = (2, 3, 5, 7, 11, 13)
        assert (flagvar.counting_polynomial(m, seq, primes=iter(primes))
                .counts == flagvar.counting_polynomial(m, seq).counts)
        m = rigid_module(a2, 2, 2, (1, 1), seed=9)
        assert (flagvar.bundle_ratio_check(m, seq, primes=iter((2, 3))).rows
                == flagvar.bundle_ratio_check(m, seq, primes=(2, 3)).rows)
        with pytest.raises(NotEnoughPrimes):
            flagvar.bundle_ratio_check(m, seq, primes=iter(()))


class TestCountMonotonicity:
    @pytest.mark.parametrize("k", [2, 3])
    def test_top_count_at_least_image_count(self, a2, k):
        # the reduction map is defined on every flag, so the top count
        # bounds the size of the image downstairs
        top = n_module(a2, k, 2)
        brseq = [(1, 1), (1, 1)]
        images = {tuple(flagvar.reduce_flag(top, f).layers)
                  for f in flagvar.iter_flags(top, brseq)}
        assert flagvar.point_count(top, brseq) >= len(images)


class TestTwistedData:
    """Flag machinery on data whose oriented pair twists (f_ij > 1)."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_counts_match_enumeration(self, b2_rev, g2, k):
        for datum in (b2_rev, g2):
            m = hmod.random_locally_free(datum, k, 2, (2, 1), seed=20)
            for e in [(1, 0), (0, 1), (1, 1), (2, 0)]:
                assert (flagvar.count_locally_free_submodules(m, e)
                        == len(list(flagvar.iter_locally_free_submodules(
                            m, e))))

    def test_rigid_flags_and_fibers(self, b2_rev):
        m = homext.find_rigid(b2_rev, 2, 2, (1, 1), trials=40,
                              seed=21).module
        from cartanquiver.cartan import euler_form, flag_dimension

        for brseq in ([(1, 0), (0, 1)], [(0, 1), (1, 0)]):
            d = flag_dimension(b2_rev, brseq)
            expected_tangent = euler_form(b2_rev, brseq[0], brseq[1], k=2)
            base_mod = reduction.reduce(m).module
            total = 0
            for base in flagvar.iter_flags(base_mod, brseq):
                fib = flagvar.fiber_of_reduction(m, base)
                assert not fib.empty and fib.dimension == d
                total += fib.point_count()
            assert total == flagvar.point_count(m, brseq)
            for flag in flagvar.iter_flags(m, brseq):
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
        for base in flagvar.iter_flags(base_mod, brseq):
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
                for base in flagvar.iter_flags(base_mod, brseq):
                    total += flagvar.fiber_of_reduction(m, base).point_count()
                assert total == flagvar.point_count(m, brseq)
