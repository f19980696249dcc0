"""Counts that solve their vertex with the most charts.

Above `flagvar._BLOCK_TEST_CHARTS` charts, a count does not build the
charts of its last vertex: per pivot pattern the closure residues are
affine in the free coefficients, and one exact solve over F_p per pattern
counts the closed charts.  The block test it replaces, forced through the
constant, is the oracle, and on small cases so is the enumeration.
"""

import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cartanquiver import flagvar, hmod, homext
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

ALWAYS_SOLVE = 0
NEVER_SOLVE = 10 ** 18


def forced(threshold, fn, *args):
    """fn(*args) with `_BLOCK_TEST_CHARTS` set to threshold: 0 solves the
    last vertex of every count, NEVER_SOLVE block-tests it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flagvar, "_BLOCK_TEST_CHARTS", threshold)
        return fn(*args)


def largest_charts(m, i):
    """The most charts any sub rank has at vertex i of m."""
    r = m.dims[i] // m.loop_order(i)
    return max(chart_count(m.loop_order(i), r, e, m.p)
               for e in range(r + 1))


@st.composite
def counted_cases(draw, datums):
    """A random, mostly non-rigid module with a 2- or 3-step sequence,
    small enough that the block test runs in milliseconds."""
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
        assume(sizes[-1] <= 20000 and math.prod(sizes[:-1]) <= 400)
    else:
        # the top layer is enumerated, with a count inside each closed one
        assume(math.prod(sizes) <= 3000)
    return m, brseq


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_solve_matches_block_test(a2, b2, b2_rev, g2, kronecker, a3, data):
    m, brseq = data.draw(counted_cases(
        [a2, b2, b2_rev, g2, kronecker, a3, A3_REV]))
    want = forced(NEVER_SOLVE, flagvar.point_count, m, brseq)
    assert forced(ALWAYS_SOLVE, flagvar.point_count, m, brseq) == want
    assert flagvar.point_count(m, brseq) == want
    e = brseq[0]
    count = forced(ALWAYS_SOLVE, flagvar.count_locally_free_submodules, m, e)
    assert count == forced(NEVER_SOLVE,
                           flagvar.count_locally_free_submodules, m, e)
    if math.prod(largest_charts(m, i) for i in range(m.n)) <= 3000:
        assert count == len(list(
            flagvar.iter_locally_free_submodules(m, e)))


@pytest.mark.parametrize("name, k, p, r, e", [
    ("kronecker", 2, 3, (3, 2), (1, 1)),
    ("b2_rev", 2, 3, (2, 3), (1, 1)),
    ("a2", 3, 3, (3, 2), (2, 1)),
], ids=["kronecker", "b2_rev", "a2"])
def test_solve_matches_block_test_on_fixed_modules(request, name, k, p, r,
                                                   e):
    # random non-rigid modules: Kronecker counts 0 for most seeds, B2
    # counts 1, 9 and 18, and A2's vertex 1 (1,053 charts) is solved by
    # default
    datum = request.getfixturevalue(name)
    for seed in range(6):
        m = hmod.random_locally_free(datum, k, p, r, seed=seed)
        want = forced(NEVER_SOLVE, flagvar.count_locally_free_submodules,
                      m, e)
        assert forced(ALWAYS_SOLVE, flagvar.count_locally_free_submodules,
                      m, e) == want
        assert flagvar.count_locally_free_submodules(m, e) == want


def g2_module(q):
    """The rigid G2 module of rank (3, 2) at k = 2 that `find_rigid` finds
    over F_q."""
    search = homext.find_rigid(G2_LONG, 2, q, (3, 2))
    assert search.found()
    return search.module


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
        # vertex 1 (7,168 charts) is solved, vertex 2 (6) is enumerated
        monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 6)
        assert flagvar.point_count(m, G2_BRSEQ) == enumerated
        with pytest.raises(BudgetExceeded, match="vertex 1 has 7168"):
            next(flagvar.iter_flags(m, G2_BRSEQ))
        monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 5)
        with pytest.raises(BudgetExceeded, match="vertex 2 has 6"):
            flagvar.point_count(m, G2_BRSEQ)
