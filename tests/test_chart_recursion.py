"""The flag recursion counts and enumerates inside each top layer in the
basis of its chart rows, and a module in standard form is reduced by its
coordinates: both against the constructions they replace, the recursion
by validated submodules (`reference_layer_chains`) and the generic
quotient along the images of the powers of eps (`hmod.quotient`)."""

import contextlib
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cartanquiver import flagvar, hmod, reduction
from cartanquiver import exactlinalg as la
from cartanquiver.errors import NotInvariant
from cartanquiver.exactlinalg import Subspace

from conftest import make_datum, reference_layer_chains, scrambled
from reference_linalg import chart_count

DATA = {
    "a2": make_datum([[2, -1], [-1, 2]], [1, 1], [(0, 1)]),
    "b2": make_datum([[2, -1], [-2, 2]], [2, 1], [(0, 1)]),
    "b2_rev": make_datum([[2, -1], [-2, 2]], [2, 1], [(1, 0)]),
    "g2": make_datum([[2, -3], [-1, 2]], [1, 3], [(0, 1)]),
    "kronecker": make_datum([[2, -2], [-2, 2]], [1, 1], [(0, 1)]),
}

# flags of the free module of the same rank, the most any module can have
FREE_FLAG_LIMIT = 1500


def free_flag_bound(datum, k, p, seq) -> int:
    """The number of flags of the free module with subquotient ranks seq:
    per vertex and step, the free submodules of the layer below inside the
    layer above."""
    total = 1
    for i in range(datum.n):
        acc = list(itertools.accumulate(r[i] for r in seq))
        for lower, upper in zip(acc, acc[1:]):
            total *= chart_count(k * datum.d[i], upper, lower, p)
    return total


def flagged_module(datum, k, p, seq, seed):
    """The direct sum of random modules of the ranks of seq, which has at
    least the flag of its partial sums (a random module of the whole rank
    often has none)."""
    pieces = [hmod.random_locally_free(datum, k, p, r, seed=(seed, t))
              for t, r in enumerate(seq) if any(r)]
    return functools.reduce(hmod.direct_sum, pieces)


@contextlib.contextmanager
def checked_records(checks):
    """Run with every chart record of the recursion (`hmod._restrict` of a
    module to the chart rows B of a closed top layer) checked on the way:
    `hmod.validate_module` passes on it, its loops are standard, its rank
    is e, the rows of the charts over the loop orders, and
    B_i^T X' == X B_j^T for every loop and arrow X of the module above it
    and its restriction X'.  `checks` collects one entry per record."""
    original = hmod._restrict

    def checked(m, bases, pivots):
        record = original(m, bases, pivots)
        hmod.validate_module(record)
        assert record.standard_form
        e = tuple(len(rows) // m.loop_order(i)
                  for i, rows in enumerate(bases))
        assert hmod.rank_vector(record) == e
        for (label, x, i, j), (_, xr, _, _) in zip(
                m.maps_with_labels(), record.maps_with_labels()):
            assert np.array_equal((x @ bases[j].T) % m.p,
                                  (bases[i].T @ xr) % m.p), label
        checks.append(record)
        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hmod, "_restrict", checked)
        yield


def assert_matches_reference(m, seq):
    """point_count and iter_flags of m against the submodule recursion,
    with every chart record checked; returns the number of records."""
    records = []
    with checked_records(records):
        count = flagvar.point_count(m, seq)
        flags = [flag.layers for flag in flagvar.iter_flags(m, seq)]
    assert count == sum(reference_layer_chains(m, seq, True))
    want = {tuple(map(tuple, chain))
            for chain in reference_layer_chains(m, seq, False)}
    assert len(flags) == len(set(flags)) == count
    assert set(flags) == want
    return len(records)


@st.composite
def flag_cases(draw):
    name = draw(st.sampled_from(sorted(DATA)))
    datum = DATA[name]
    k = draw(st.integers(1, 3))
    p = draw(st.sampled_from([2, 3, 5]))
    steps = draw(st.sampled_from([3, 4]))
    seq = tuple(draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                              min_size=steps, max_size=steps)))
    assume(free_flag_bound(datum, k, p, seq) <= FREE_FLAG_LIMIT)
    rank = tuple(map(sum, zip(*seq)))
    assume(any(rank))
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        m = flagged_module(datum, k, p, seq, seed)
    else:
        m = hmod.random_locally_free(datum, k, p, rank, seed=seed)
    if draw(st.booleans()):
        m = scrambled(m, np.random.default_rng(draw(st.integers(0, 99))))
    return m, seq


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(flag_cases())
def test_chart_recursion_matches_submodule_recursion(case):
    """Counts and yielded flags of random (mostly not rigid) modules, in
    standard form and not, on 3- and 4-step sequences."""
    m, seq = case
    assert_matches_reference(m, seq)


# deterministic cases: a full target layer under a non-zero arrow (A2
# ((1, 1), (1, 0), (0, 1)): the top layer is full at vertex 1, so the
# arrow 2 -> 1 is inactive there but not zero in the record), a twist
# (B2 reversed, G2), parallel arrows (Kronecker), and a scrambled module
GRID = [
    ("a2", 2, 5, ((1, 1), (1, 0), (0, 1)), False),
    ("a2", 2, 2, ((1, 0), (0, 1), (1, 0), (0, 1)), False),
    ("a2", 3, 2, ((0, 1), (1, 0), (1, 1)), True),
    ("b2", 2, 2, ((1, 1), (0, 1), (1, 0)), False),
    ("b2_rev", 2, 2, ((1, 0), (1, 1), (0, 1)), False),
    ("b2_rev", 1, 3, ((1, 1), (1, 0), (0, 1), (0, 1)), True),
    ("g2", 1, 2, ((1, 0), (0, 1), (1, 1)), False),
    ("kronecker", 2, 2, ((1, 1), (1, 0), (0, 1)), False),
    ("kronecker", 2, 3, ((1, 0), (0, 1), (1, 0), (0, 1)), True),
]


@pytest.mark.parametrize("name, k, p, seq, scramble", GRID)
def test_chart_recursion_grid(name, k, p, seq, scramble):
    datum = DATA[name]
    rank = tuple(map(sum, zip(*seq)))
    assert free_flag_bound(datum, k, p, seq) <= 4 * FREE_FLAG_LIMIT
    records = 0
    for seed in range(3):
        m = (flagged_module(datum, k, p, seq, (30, seed)) if seed else
             hmod.random_locally_free(datum, k, p, rank, seed=(30, seed)))
        if scramble:
            m = scrambled(m, np.random.default_rng(seed))
            assert not m.standard_form
        records += assert_matches_reference(m, seq)
    assert records


def _counting(patch, owner, name, calls, static=False):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    patch.setattr(owner, name, staticmethod(counted) if static else counted)


@pytest.mark.parametrize("name, k, p, seq, scramble",
                         [case for case in GRID if not case[-1]])
def test_inner_layers_build_no_module(name, k, p, seq, scramble):
    """On a checked module in standard form, a point count of three or
    more steps builds, validates, splits, normalizes and eliminates
    nothing for its inner layers, and an enumeration builds, validates,
    splits and normalizes nothing (it eliminates only to yield the
    layers)."""
    datum = DATA[name]
    m = flagged_module(datum, k, p, seq, (31, name))
    want = sum(reference_layer_chains(m, seq, True))
    records, calls = [], []
    with checked_records(records), pytest.MonkeyPatch.context() as patch:
        for owner, attr in ((hmod, "make_module"), (hmod, "validate_module"),
                            (hmod, "quotient"), (hmod, "sub_quotient"),
                            (hmod, "normalize")):
            _counting(patch, owner, attr, calls)
        _counting(patch, Subspace, "from_rows", calls, static=True)
        assert flagvar.point_count(m, seq) == want
        # the records' own check in checked_records validates them
        assert calls == ["validate_module"] * len(records)
        assert records
        calls.clear()
        records.clear()
        assert len(list(flagvar.iter_flags(m, seq))) == want
        assert set(calls) <= {"from_rows", "validate_module"}
        assert calls.count("validate_module") == len(records)


# --- reduction by coordinates ----------------------------------------------

def generic_quotient_at_level(m, a):
    """M / eps^a M by the generic split, along the images of the powers
    Eps_i^(a*c_i) of the loops."""
    return hmod.quotient(m, [la.image(la.matpow(m.eps[i], a * m.datum.d[i],
                                                m.p), m.p)
                             for i in range(m.n)], a)


def assert_same_quotient(got, want):
    """Byte equality of the modules and of the subspaces."""
    for x, y in ((got.module, want.module),):
        assert (x.datum, x.k, x.p, x.dims) == (y.datum, y.k, y.p, y.dims)
        assert list(x.arrows) == list(y.arrows)
        for (_, a, _, _), (_, b, _, _) in zip(x.maps_with_labels(),
                                              y.maps_with_labels()):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable
    for u, v in zip(got.subspaces, want.subspaces, strict=True):
        assert u == v and u.pivots == v.pivots
        assert u.basis.dtype == v.basis.dtype
        assert u.basis.tobytes() == v.basis.tobytes()
        assert not u.basis.flags.writeable


REDUCTION_CASES = [(name, k, p, r) for name in sorted(DATA)
                   for k, p in ((2, 2), (3, 3), (4, 2), (2, 5))
                   for r in ((1, 0), (0, 1), (2, 1), (1, 2))]


@pytest.mark.parametrize("name, k, p, r", REDUCTION_CASES)
def test_coordinate_reduction_matches_generic_quotient(name, k, p, r):
    """reduce and the shadow of the reduction record, on standard-form
    modules and on scrambled ones, equal the generic split."""
    m = hmod.random_locally_free(DATA[name], k, p, r, seed=(32, name, k))
    for mod in (m, scrambled(m, np.random.default_rng(k))):
        red = reduction.reduce(mod)
        assert_same_quotient(red, generic_quotient_at_level(mod, k - 1))
        assert red.module.standard_form or mod is not m
        data = flagvar._reduction_data(mod)
        assert_same_quotient(data.shadow,
                             generic_quotient_at_level(red.module, 1))
        for i, block in enumerate(data.blocks):
            assert np.array_equal(block, la.matpow(
                mod.eps[i], (k - 1) * mod.datum.d[i], p))


@pytest.mark.parametrize("name, k, p, r", REDUCTION_CASES[::5])
def test_standard_reduction_eliminates_nothing(name, k, p, r):
    """reduce of a module in standard form raises no power and eliminates
    nothing; it validates the reduced module once."""
    m = hmod.random_locally_free(DATA[name], k, p, r, seed=(33, name, k))
    want = generic_quotient_at_level(m, k - 1)
    calls = []
    validating = []
    original_validate = hmod.validate_module

    def validate(mod):
        validating.append(mod)
        try:
            return original_validate(mod)
        finally:
            validating.pop()

    def counted(label, original):
        def call(*args, **kwargs):
            if not validating:
                calls.append(label)
            return original(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for attr in ("rref", "matpow"):
            patch.setattr(la, attr, counted(attr, getattr(la, attr)))
        patch.setattr(hmod, "validate_module",
                      counted("validate_module", validate))
        red = reduction.reduce(m)
    assert calls == ["validate_module"]
    assert_same_quotient(red, want)


def test_coordinate_reduction_checks_invariance(b2):
    """A record in standard form whose arrow maps eps^(k-1) M out of
    itself (it breaks (H2), so only a record built without `make_module`
    can hold it) is refused at the slice test."""
    m = hmod.random_locally_free(b2, 2, 3, (1, 1), seed=34)
    bad = m.arrows[(0, 1)][0].copy()
    bad[0, 1] = 1        # degree-1 source coordinate to degree-0 target
    broken = hmod.HModule(m.datum, m.k, m.p, m.dims, m.eps,
                          {(0, 1): (bad,)})
    assert broken.standard_form
    with pytest.raises(NotInvariant, match="alpha_12"):
        reduction.reduce(broken)
    with pytest.raises(NotInvariant):
        generic_quotient_at_level(broken, 1)


def test_reduction_of_zero_vertex(a2):
    """A vertex of rank 0 reduces to an empty space with an empty
    subspace, as the generic split gives it."""
    m = hmod.random_locally_free(a2, 3, 2, (0, 2), seed=35)
    assert_same_quotient(reduction.reduce(m), generic_quotient_at_level(m, 2))
    assert math.prod(reduction.reduce(m).module.dims) == 0
