"""Searches that solve their vertices above `flagvar._BLOCK_TEST_CHARTS`.

A key over that many charts keeps no table: per pivot pattern the closure
residues are affine in the free coefficients, and one exact solve over
F_p per pattern gives the closed charts, which a count counts without
building them and a stream builds a batch at a time.  The table test,
forced through the constant, is the oracle, and on small cases so is the
enumeration.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cartanquiver import flagvar, hmod, homext, reduction
from cartanquiver.errors import BudgetExceeded

from conftest import make_datum
from reference_linalg import chart_count

# every orientation reversed, as a second A3
A3_REV = make_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1],
                    [(1, 0), (2, 1)])
# G2 with its long root at vertex 1, so the paper-scale case below has
# rank (3, 2): vertex 1 has loop order 6 at k = 2
G2_LONG = make_datum([[2, -1], [-3, 2]], [3, 1], [(0, 1)])
G2_BRSEQ = ((2, 1), (1, 1))
PRIMES = (2, 3, 5, 7, 11, 13)
PRIMES_TO_59 = PRIMES + (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)

ALWAYS_SOLVE = 0
NEVER_SOLVE = 10 ** 18
# the most charts the forced table test of a random example visits
TABLE_TEST_CHARTS = 100000


def forced(threshold, fn, *args):
    """fn(*args) with `_BLOCK_TEST_CHARTS` set to threshold and every entry
    built under it (the entries read it once, when they are built): 0
    solves every level of every search, NEVER_SOLVE table-tests it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flagvar, "_BLOCK_TEST_CHARTS", threshold)
        flagvar._vertex_candidates.cache_clear()
        try:
            return fn(*args)
        finally:
            flagvar._vertex_candidates.cache_clear()


def searched(m, brseq):
    """The flag count of m and the count of its submodules of rank
    brseq[0] and, on cases small enough to iterate and with at most 100
    points, the sets of those submodules and flags, each checked free of
    repeats and as large as its count."""
    e = brseq[0]
    counts = (flagvar.point_count(m, brseq),
              flagvar.count_locally_free_submodules(m, e))
    if math.prod(largest_charts(m, i) for i in range(m.n)) > 3000:
        return counts, None
    found = []
    for count, stream in zip(counts, (
            lambda: [f.layers for f in flagvar.iter_flags(m, brseq)],
            lambda: list(flagvar.iter_locally_free_submodules(m, e)))):
        if count <= 100:
            items = stream()
            assert len(items) == len(set(items)) == count
            found.append(set(items))
    return counts, found


def largest_charts(m, i):
    """The most charts any sub rank has at vertex i of m."""
    r = m.dims[i] // m.loop_order(i)
    return max(chart_count(m.loop_order(i), r, e, m.p)
               for e in range(r + 1))


@st.composite
def counted_cases(draw, datums):
    """A random, mostly non-rigid module with a 2- or 3-step sequence,
    small enough that the block test runs in milliseconds: the product of
    the largest chart counts of its vertices bounds the charts that the
    forced table test visits (the table of the last vertex once per tuple
    of the others), so it is at most TABLE_TEST_CHARTS.  Larger keys are
    pinned in `test_solve_matches_block_test_on_fixed_modules`."""
    datum = draw(st.sampled_from(datums))
    k = draw(st.integers(1, 3))
    p = draw(st.sampled_from((2, 3, 5)))
    r = tuple(draw(st.integers(1, 3 if datum.n == 2 else 2))
              for _ in range(datum.n))
    m = hmod.random_locally_free(datum, k, p, r,
                                 seed=draw(st.integers(0, 2 ** 16)))
    brseq, rest = [], list(r)
    for _ in range(draw(st.integers(1, 2))):
        part = tuple(draw(st.integers(0, x)) for x in rest)
        brseq.append(part)
        rest = [x - y for x, y in zip(rest, part)]
    brseq.append(tuple(rest))
    sizes = sorted(largest_charts(m, i) for i in range(m.n))
    if len(brseq) == 2:
        assume(math.prod(sizes) <= TABLE_TEST_CHARTS)
    else:
        # the top layer may be enumerated, with a count inside each
        # closed one
        assume(math.prod(sizes) <= 3000)
    return m, brseq


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_solve_matches_block_test(a2, b2, b2_rev, g2, kronecker, a3, data):
    m, brseq = data.draw(counted_cases(
        [a2, b2, b2_rev, g2, kronecker, a3, A3_REV]))
    # counts, and on small cases the sets of submodules and flags that
    # iteration yields, the same with every level solved or table-tested
    want = forced(NEVER_SOLVE, searched, m, brseq)
    assert forced(ALWAYS_SOLVE, searched, m, brseq) == want
    e = brseq[0]
    count = flagvar.count_locally_free_submodules(m, e)
    assert (flagvar.point_count(m, brseq), count) == want[0]
    # at the default threshold, the stream of every case small enough to
    # iterate is as long as its count
    if math.prod(largest_charts(m, i) for i in range(m.n)) <= 3000:
        assert count == len(list(
            flagvar.iter_locally_free_submodules(m, e)))


@pytest.mark.parametrize("name, k, p, r, e, seeds", [
    ("kronecker", 2, 3, (3, 2), (1, 1), 6),
    ("b2_rev", 2, 3, (2, 3), (1, 1), 6),
    ("a2", 3, 3, (3, 2), (2, 1), 6),
    ("b2", 3, 5, (2, 2), (1, 1), 1),
], ids=["kronecker", "b2_rev", "a2", "b2-18750"])
def test_solve_matches_block_test_on_fixed_modules(request, name, k, p, r,
                                                   e, seeds):
    # random non-rigid modules: Kronecker counts 0 for most seeds, B2
    # counts 1, 9 and 18, and A2's vertex 1 (1,053 charts) is solved by
    # default; B2's vertex 1 at k = 3 over F_5 has 18,750 charts, whose
    # table is tested once per chart of vertex 2 (150), about 2 s, so it
    # runs one seed and random examples stay below it
    datum = request.getfixturevalue(name)
    for seed in range(seeds):
        m = hmod.random_locally_free(datum, k, p, r, seed=seed)
        want = forced(NEVER_SOLVE, flagvar.count_locally_free_submodules,
                      m, e)
        assert forced(ALWAYS_SOLVE, flagvar.count_locally_free_submodules,
                      m, e) == want
        assert flagvar.count_locally_free_submodules(m, e) == want


def test_budget_bounds_a_vacuous_solved_level(a2, monkeypatch):
    # A2 at k = 1 over F_2, rank (4, 2), sub rank (2, 1), one arrow
    # 2 -> 1 taking the first basis vector to the first and the second to
    # zero.  Vertex 2 (3 lines) is visited in full; vertex 1 (35 planes,
    # solved) has 7 closed planes over the lines the arrow moves and all
    # 35 over the line it kills, where the solve constrains nothing
    a = np.zeros((4, 2), dtype=np.int64)
    a[0, 0] = 1
    m = hmod.make_module(a2, 1, 2, [np.zeros((4, 4), dtype=np.int64),
                                    np.zeros((2, 2), dtype=np.int64)],
                         {(0, 1): [a]})
    e = (2, 1)
    monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 34)
    for threshold in (ALWAYS_SOLVE, NEVER_SOLVE):
        # a count counts vertex 1 per line and never visits it
        assert forced(threshold, flagvar.count_locally_free_submodules,
                      m, e) == 7 + 7 + 35
    with pytest.raises(BudgetExceeded, match="vertex 1 has 35"):
        forced(ALWAYS_SOLVE, list,
               flagvar.iter_locally_free_submodules(m, e))
    monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 35)
    assert len(forced(ALWAYS_SOLVE, list,
                      flagvar.iter_locally_free_submodules(m, e))) == 49


def g2_module(q):
    """The rigid G2 module of rank (3, 2) at k = 2 that `find_rigid` finds
    over F_q."""
    search = homext.find_rigid(G2_LONG, 2, q, (3, 2))
    assert search.found()
    return search.module


def recorded_restrictions(monkeypatch) -> list:
    """The list to which every later `hmod._restrict` call appends its
    arguments: one entry per record a flag recursion builds."""
    records = []
    original = hmod._restrict

    def recorded(*args):
        records.append(args)
        return original(*args)

    monkeypatch.setattr(hmod, "_restrict", recorded)
    return records


class TestPaperScale:
    """G2 (3,2) at k = 2, brseq ((2,1),(1,1)).  Vertex 1 has 7,168 charts
    at q = 2 and 302,734,375 at q = 5, above VERTEX_CANDIDATE_BUDGET;
    before the solve, the count took 20.7 s at q = 3 and was refused at
    q = 5."""

    def test_every_prime_within_a_second(self):
        modules = {q: g2_module(q) for q in PRIMES}
        flagvar._vertex_candidates.cache_clear()
        start = time.perf_counter()
        counts = {q: flagvar.point_count(m, G2_BRSEQ)
                  for q, m in modules.items()}
        assert time.perf_counter() - start < 1.0
        # the block-test search gave 576 at q = 2 and 11,664 at q = 3
        assert counts == {q: q ** 6 * (q + 1) ** 2 for q in PRIMES}

    def test_block_test_agrees_at_two(self):
        m = g2_module(2)
        assert (flagvar.point_count(m, G2_BRSEQ)
                == forced(NEVER_SOLVE, flagvar.point_count, m, G2_BRSEQ)
                == 576)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_bundle_ratio_holds(self, q):
        # Theorem 3: the level-2 count is q^d times the level-1 count
        rep = flagvar.bundle_ratio_check(g2_module(q), G2_BRSEQ, primes=(q,))
        assert [row["rigid"] for row in rep.rows] == [True]
        assert rep.ok_for_rigid

    def test_budget_bounds_only_enumerated_vertices(self, monkeypatch):
        m = g2_module(2)
        enumerated = len(list(flagvar.iter_locally_free_submodules(
            m, G2_BRSEQ[0])))
        assert enumerated == 576
        # vertex 2 (6 charts) comes first and is visited in full; vertex 1
        # (7,168) is solved against it, 96 closed charts per chart of
        # vertex 2, which a stream builds and a count only counts
        monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 6)
        assert flagvar.point_count(m, G2_BRSEQ) == enumerated
        with pytest.raises(BudgetExceeded, match="vertex 1 has 96"):
            next(flagvar.iter_flags(m, G2_BRSEQ))
        monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 96)
        assert len(list(flagvar.iter_flags(m, G2_BRSEQ))) == enumerated
        monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 5)
        with pytest.raises(BudgetExceeded, match="vertex 2 has 6"):
            flagvar.point_count(m, G2_BRSEQ)
        with pytest.raises(BudgetExceeded, match="vertex 2 has 6"):
            next(flagvar.iter_flags(m, G2_BRSEQ))

    def test_three_step_count_at_three(self):
        # the top layer (2, 1) is counted as a two-step count and the
        # bottom step (1, 0) inside it in closed form; the table-test
        # search gave 11,337,408 = q^11 (q+1)^3 in 25 s
        m = g2_module(3)
        start = time.perf_counter()
        assert flagvar.point_count(m, ((1, 0), (1, 1), (1, 1))) == 11337408
        assert time.perf_counter() - start < 5.0

    def test_three_step_count_at_five_builds_no_record(self, monkeypatch):
        # no arrow can constrain the bottom step (1, 0) inside the top
        # layer (2, 1), so only the top layer is counted, by the two-step
        # count, and no closed top layer gets a record (a record per
        # closed top layer is 562,500 records here, 20-22 s)
        m = g2_module(5)
        records = recorded_restrictions(monkeypatch)
        start = time.perf_counter()
        assert (flagvar.point_count(m, ((1, 0), (1, 1), (1, 1)))
                == 10546875000 == 5 ** 11 * 6 ** 3)
        assert time.perf_counter() - start < 1.0
        assert records == []

    def test_constrained_order_still_recurses(self, monkeypatch):
        # the bottom step (1, 1) of ((1, 1), (1, 0), (1, 1)) meets the
        # arrow inside the top layer (2, 1): one record per closed top layer
        m = g2_module(2)
        records = recorded_restrictions(monkeypatch)
        seq = ((1, 1), (1, 0), (1, 1))
        count = flagvar.point_count(m, seq)
        assert len(records) == 576
        assert count == len(list(flagvar.iter_flags(m, seq)))

    def test_theorem_three_three_steps(self):
        # Theorem 3: chi of the flag variety does not depend on k.  The
        # counts of the level-2 module and of its reduction over the
        # primes 2..59 interpolate to q^11 (q+1)^3 and q^4 (q+1)^3, both 8
        # at q = 1
        m = g2_module(2)
        seq = ((1, 0), (1, 1), (1, 1))
        start = time.perf_counter()
        tables = [flagvar.counting_polynomial(mod, seq, primes=PRIMES_TO_59)
                  for mod in (reduction.reduce(m).module, m)]
        assert time.perf_counter() - start < 30.0
        binomial = (1, 3, 3, 1)
        assert [t.polynomial for t in tables] == [(0,) * 4 + binomial,
                                                  (0,) * 11 + binomial]
        assert [t.chi_estimate for t in tables] == [8, 8]

    def test_first_submodule_at_five_within_a_second(self):
        # vertex 1 has 302,734,375 charts at q = 5, solved and streamed,
        # never visited in full
        m = g2_module(5)
        start = time.perf_counter()
        first = next(flagvar.iter_locally_free_submodules(m, (2, 1)))
        assert time.perf_counter() - start < 1.0
        assert [u.dim for u in first] == [12, 2]
        assert all(u.contains_rows((a @ first[j].basis.T).T)
                   for (i, j), mats in m.arrows.items() for a in mats
                   for u in [first[i]])
