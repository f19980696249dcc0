"""The F_p-point scan: base-p digits (exactlinalg.digits) and the one
structure-space scan (hmod.structure_space) that find_rigid,
parameter_estimate, ext_generic, is_schur_root and
canonical_decomposition share, against the loops each once wrote."""

import itertools
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cartanquiver import gendecomp, hmod, homext
from cartanquiver import exactlinalg as la
from cartanquiver.errors import ShapeMismatch, ValidationError

from conftest import (
    reference_decomposition_scan,
    reference_ext_generic,
    reference_find_rigid,
    reference_iter_structure_matrices,
    reference_parameter_estimate,
    reference_schur_scan,
    reference_structure_space,
    scrambled,
)

PRIMES = (2, 3, 5, 7, 11, 13)


def _divmod_digits(code: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        code, digit = divmod(code, p)
        out.append(digit)
    return out


class TestDigits:
    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from(PRIMES), width=st.integers(0, 8),
           data=st.data())
    @example(p=13, width=0, data=None)
    def test_matches_divmod_loop(self, p, width, data):
        codes = [0, p ** width - 1]
        if data is not None:
            codes += data.draw(st.lists(st.integers(0, p ** width - 1),
                                        max_size=12))
        got = la.digits(np.array(codes, dtype=np.int64), p, width)
        assert got.dtype == np.int64 and got.shape == (len(codes), width)
        for row, code in zip(got, codes):
            assert row.tolist() == _divmod_digits(code, p, width)

    @pytest.mark.parametrize("p,width", [(2, 0), (2, 5), (3, 4), (13, 2)])
    def test_order_of_product(self, p, width):
        # least significant first: the last digit varies slowest
        got = la.digits(np.arange(p ** width, dtype=np.int64), p, width)
        want = [t[::-1] for t in itertools.product(range(p), repeat=width)]
        assert [tuple(row) for row in got.tolist()] == want

    def test_scalar_and_stacked_codes(self):
        assert la.digits(0, 5, 3).tolist() == [0, 0, 0]
        assert la.digits(np.array([[7, 8]]), 2, 4).shape == (1, 2, 4)

    @pytest.mark.parametrize("p,width,start", [(2, 13, 0), (2, 13, 1),
                                               (3, 3, 1), (5, 0, 0)])
    def test_chunks_cover_the_codes_in_order(self, p, width, start):
        blocks = list(la.digit_chunks(p, width, start))
        assert all(0 < len(b) <= la.DIGIT_CHUNK for b in blocks)
        want = la.digits(np.arange(start, p ** width), p, width)
        assert np.array_equal(np.concatenate(blocks), want)


SPACES = [("a2", 1, 2, (1, 1)), ("a2", 2, 3, (1, 1)), ("a2", 2, 2, (2, 1)),
          ("b2", 1, 2, (1, 1)), ("b2", 2, 2, (1, 1)), ("b2", 1, 2, (2, 1)),
          ("kronecker", 1, 2, (1, 1)), ("kronecker", 1, 3, (1, 0))]
SPACE_IDS = [f"{name}-k{k}-p{p}-r{r[0]}{r[1]}" for name, k, p, r in SPACES]
BRANCHES = ["sampled", "exhaustive"]


def _space(request, name, k, p, r, branch):
    """The datum and a budget one below (sampled) or at (exhaustive) the
    number of points of the space."""
    datum = request.getfixturevalue(name)
    size = p ** hmod.structure_parameter_count(datum, k, r)
    return datum, size - 1 if branch == "sampled" else size


def _same_modules(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return hmod.modules_equal(got, want)


def _record_seeds(monkeypatch, name: str) -> list:
    """Wrap gendecomp.<name> to record (seed, module matrices) per call."""
    calls = []
    original = getattr(gendecomp, name)

    def recording(m, seed=0, **kwargs):
        calls.append((seed, m.dims, tuple(
            a.tobytes() for _, a, _, _ in m.maps_with_labels())))
        return original(m, seed=seed, **kwargs)

    monkeypatch.setattr(gendecomp, name, recording)
    return calls


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("name,k,p,r", SPACES, ids=SPACE_IDS)
class TestAgainstReference:
    def test_structure_space(self, request, monkeypatch, name, k, p, r,
                             branch):
        datum, budget = _space(request, name, k, p, r, branch)
        monkeypatch.setattr(hmod, "STRUCTURE_SPACE_BUDGET", budget)
        exhaustive, modules = hmod.structure_space(datum, k, p, r, 5,
                                                   (3, "s"))
        assert isinstance(modules, types.GeneratorType)
        want_exhaustive, want = reference_structure_space(
            datum, k, p, r, budget, 5, (3, "s"))
        got = list(modules)
        assert exhaustive == want_exhaustive == (branch == "exhaustive")
        assert len(got) == len(want)
        assert all(hmod.modules_equal(a, b) for a, b in zip(got, want))

    def test_find_rigid(self, request, monkeypatch, name, k, p, r, branch):
        datum, budget = _space(request, name, k, p, r, branch)
        monkeypatch.setattr(hmod, "STRUCTURE_SPACE_BUDGET", budget)
        for trials in (0, 3):
            got = homext.find_rigid(datum, k, p, r, trials=trials, seed=5)
            module, used, exhaustive, none_exists = reference_find_rigid(
                datum, k, p, r, trials, 5, budget)
            assert _same_modules(got.module, module)
            assert (got.trials_used, got.exhaustive, got.none_exists,
                    got.hits) == (used, exhaustive, none_exists,
                                  int(module is not None))

    def test_parameter_estimate(self, request, monkeypatch, name, k, p, r,
                                branch):
        datum, budget = _space(request, name, k, p, r, branch)
        monkeypatch.setattr(hmod, "STRUCTURE_SPACE_BUDGET", budget)
        got = homext.parameter_estimate(datum, k, p, r, samples=4, seed=2)
        assert (got.value, got.min_end_dim, got.quadratic_form, got.samples,
                got.exhaustive) == reference_parameter_estimate(
                    datum, k, p, r, 4, 2, budget)

    def test_is_schur_root(self, request, monkeypatch, name, k, p, r,
                           branch):
        datum, budget = _space(request, name, k, p, r, branch)
        monkeypatch.setattr(hmod, "STRUCTURE_SPACE_BUDGET", budget)
        calls = _record_seeds(monkeypatch, "is_indecomposable")
        got = gendecomp.is_schur_root(datum, k, p, r, samples=4, seed=6)
        got_calls = calls[:]
        calls.clear()
        hits, count, exhaustive, certainty = reference_schur_scan(
            datum, k, p, r, 4, 6, budget)
        assert got_calls == calls   # the same modules with the same seeds
        assert (got.rate, got.samples, got.exhaustive, got.certainty) == (
            hits / max(count, 1), count, exhaustive, certainty)

    def test_canonical_decomposition(self, request, monkeypatch, name, k, p,
                                     r, branch):
        datum, budget = _space(request, name, k, p, r, branch)
        monkeypatch.setattr(hmod, "STRUCTURE_SPACE_BUDGET", budget)
        calls = _record_seeds(monkeypatch, "krull_schmidt")
        got = gendecomp.canonical_decomposition(datum, k, p, r, samples=4,
                                                seed=8)
        got_calls = calls[:]
        calls.clear()
        counter, count, exhaustive, certainty = \
            reference_decomposition_scan(datum, k, p, r, 4, 8, budget)
        assert got_calls == calls   # the same modules with the same seeds
        assert (got.samples, got.exhaustive, got.certainty) == (
            count, exhaustive, certainty)
        assert got.majority_fraction == counter[got.parts] / max(count, 1)


PAIRS = [("a2", 1, 2, (1, 1), (1, 0)), ("a2", 2, 3, (1, 0), (0, 1)),
         ("b2", 1, 2, (1, 0), (0, 1)), ("b2", 2, 2, (0, 1), (1, 1)),
         ("kronecker", 1, 2, (1, 0), (0, 1)),
         ("kronecker", 2, 2, (0, 1), (1, 0))]


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("name,k,p,r,s", PAIRS)
def test_ext_generic(request, monkeypatch, name, k, p, r, s, branch):
    datum = request.getfixturevalue(name)
    size = p ** (hmod.structure_parameter_count(datum, k, r)
                 + hmod.structure_parameter_count(datum, k, s))
    budget = size - 1 if branch == "sampled" else size
    monkeypatch.setattr(gendecomp, "PAIR_SPACE_BUDGET", budget)
    got = gendecomp.ext_generic(datum, k, p, r, s, samples=3, seed=4)
    assert got == reference_ext_generic(datum, k, p, r, s, 3, 4, budget)



@pytest.mark.parametrize("r,s", [((1, 2), (2, 2)), ((0, 1), (1, 1)),
                                 ((1, 0), (1, 1))])
def test_ext_generic_builds_each_module_once(kronecker, monkeypatch, r, s):
    """The exhaustive pair scan builds the modules the reference loop
    builds, in its order, each once: 16 + 256 builds instead of
    16 + 16 * 256 on (1, 2), (2, 2), and only the pairs before the early
    stop at 0 on (1, 0), (1, 1)."""
    built = []
    original = hmod.from_structure_matrices

    def counted(sm):
        built.append((sm.rank, tuple(sm.mats[key].tobytes()
                                     for key in sorted(sm.mats))))
        return original(sm)

    monkeypatch.setattr(hmod, "from_structure_matrices", counted)
    got = gendecomp.ext_generic(kronecker, 1, 2, r, s)
    once = built[:]
    built.clear()
    want = reference_ext_generic(kronecker, 1, 2, r, s, 200, 0,
                                 gendecomp.PAIR_SPACE_BUDGET)
    assert got == want
    assert once == list(dict.fromkeys(built))
    if r == (1, 2):
        assert (len(once), len(built)) == (16 + 256, 16 + 16 * 256)

def test_iter_structure_matrices_matches_reference(b2):
    # 2^8 points: more than one digit row per structure matrix
    got = list(hmod.iter_structure_matrices(b2, 1, 2, (2, 2)))
    want = list(reference_iter_structure_matrices(b2, 1, 2, (2, 2)))
    assert len(got) == len(want) == 2 ** 8
    for a, b in zip(got, want):
        assert a.mats.keys() == b.mats.keys()
        assert all(np.array_equal(a.mats[key], b.mats[key])
                   for key in a.mats)


class TestEarlyStop:
    """The exhaustive Hom scans compute digits a chunk at a time and stop
    at the chunk that holds the first hit."""

    @pytest.fixture
    def digit_calls(self, monkeypatch):
        calls = []
        original = la.digits

        def counting(codes, p, width):
            calls.append(len(codes))
            return original(codes, p, width)

        monkeypatch.setattr(la, "digits", counting)
        return calls

    @pytest.fixture
    def module(self, b2):
        # End(E^(2,0)) at k = 2 over F_2 has dimension 16: 2^16 codes, 16
        # chunks, with an invertible element and a proper idempotent among
        # the first 4096
        m = hmod.free_module(b2, 2, 2, (2, 0))
        assert 2 ** homext.hom_space(m, m).dim == 16 * la.DIGIT_CHUNK
        return m

    def test_are_isomorphic(self, module, digit_calls, monkeypatch):
        # an isomorphic copy in another basis: equal modules need no scan
        other = scrambled(module, np.random.default_rng(0))
        assert not hmod.modules_equal(module, other)
        monkeypatch.setattr(homext, "ISO_TRIALS", 0)
        res = homext.are_isomorphic(module, other)
        assert res.isomorphic and res.certain
        assert digit_calls == [la.DIGIT_CHUNK]   # codes 1, ..., 4096

    def test_scan_idempotents(self, module, digit_calls):
        basis = homext.hom_space(module, module)
        assert gendecomp._scan_idempotents(module, basis) is not None
        assert digit_calls == [la.DIGIT_CHUNK]


class TestRankLength:
    """A rank vector needs one entry per vertex in every structure-space
    entry point (A2 has two vertices)."""

    @pytest.mark.parametrize("r", [(1, 1, 1), (1,), (0, 0, 0)])
    def test_structure_space_entry_points(self, a2, monkeypatch, r):
        monkeypatch.setattr(hmod, "STRUCTURE_SPACE_BUDGET", 10)
        with pytest.raises(ShapeMismatch):
            hmod.structure_parameter_count(a2, 1, r)
        with pytest.raises(ShapeMismatch):
            hmod.structure_space(a2, 1, 2, r, 2, 0)
        with pytest.raises(ShapeMismatch):
            next(hmod.iter_structure_matrices(a2, 1, 2, r))
        with pytest.raises(ShapeMismatch):
            hmod.random_locally_free(a2, 1, 2, r, 0)

    @pytest.mark.parametrize("r", [(1, 1, 1), (1,)])
    def test_find_rigid(self, a2, r):
        # before, (1, 1, 1) returned a rank-(1, 1) module and (1,) raised
        # IndexError
        with pytest.raises(ShapeMismatch):
            homext.find_rigid(a2, 1, 2, r)

    @pytest.mark.parametrize("r", [(1, 1, 1), (1,)])
    def test_parameter_estimate(self, a2, r):
        with pytest.raises(ShapeMismatch):
            homext.parameter_estimate(a2, 1, 2, r)

    @pytest.mark.parametrize("r", [(1, 1, 1), (1,)])
    def test_canonical_decomposition(self, a2, r):
        # before, (1, 1, 1) failed the internal sum check and (1,) raised
        # IndexError
        with pytest.raises(ShapeMismatch):
            gendecomp.canonical_decomposition(a2, 1, 2, r)

    def test_ext_generic(self, a2):
        # before, this returned 0
        with pytest.raises(ShapeMismatch):
            gendecomp.ext_generic(a2, 1, 2, (1, 1, 1), (1, 0))
        with pytest.raises(ShapeMismatch):
            gendecomp.ext_generic(a2, 1, 2, (1, 0), (1,))

    @pytest.mark.parametrize("r", [(1, 1, 5), (0, 0, 0), (1,)])
    def test_is_schur_root(self, a2, r):
        # before, (1, 1, 5) reported the split ((0, 0, 1), (1, 1, 4))
        with pytest.raises(ShapeMismatch):
            gendecomp.is_schur_root(a2, 1, 2, r)

    def test_level_below_one(self, a2, monkeypatch):
        monkeypatch.setattr(hmod, "STRUCTURE_SPACE_BUDGET", 10)
        with pytest.raises(ValidationError):
            hmod.structure_parameter_count(a2, 0, (1, 1))
        with pytest.raises(ValidationError):
            hmod.structure_space(a2, -1, 2, (1, 1), 2, 0)


def test_k_independence_check_needs_a_level(a2):
    # before, k_max < 1 agreed vacuously over zero reports
    for k_max in (0, -1):
        with pytest.raises(ValidationError):
            gendecomp.k_independence_check(a2, 2, (1, 1), k_max)


def test_space_budget_reaches_nested_scans(b2, monkeypatch):
    # before, space_budget=1 made the census sampled while the nested
    # is_schur_root of part (1, 1) still scanned at 2**22, exhaustively
    monkeypatch.setattr(hmod, "STRUCTURE_SPACE_BUDGET", 1)
    rep = gendecomp.canonical_decomposition(b2, 1, 2, (2, 1), samples=3)
    assert rep.exhaustive is False
    assert (1, 1) in [check["part"] for check in rep.schur_checks]
    for check in rep.schur_checks:
        size = 2 ** hmod.structure_parameter_count(b2, 1, check["part"])
        assert check["exhaustive"] == (size <= 1)


def test_every_space_scan_reads_a_constant(b2, monkeypatch):
    """Each structure-space scan of a canonical decomposition, nested
    ones included, reads one of the two space budgets as they stand at
    the call: `hmod.structure_space` reads STRUCTURE_SPACE_BUDGET, and
    the call's shared spaces, which take no budget, are built only for
    ranks whose spaces have at most PAIR_SPACE_BUDGET points."""
    budgets = []
    shared = []
    original = hmod.structure_space
    original_space = gendecomp._CallTable.space

    def recording(datum, k, p, r, samples, seed):
        budgets.append(hmod.STRUCTURE_SPACE_BUDGET)
        return original(datum, k, p, r, samples, seed)

    def recording_space(table, r):
        shared.append(2 ** hmod.structure_parameter_count(b2, 1, r))
        return original_space(table, r)

    monkeypatch.setattr(hmod, "structure_space", recording)
    monkeypatch.setattr(gendecomp._CallTable, "space", recording_space)
    monkeypatch.setattr(hmod, "STRUCTURE_SPACE_BUDGET", 2 ** 20 + 1)
    # (2, 1) has 16 points: above the pair budget, shared by no scan
    monkeypatch.setattr(gendecomp, "PAIR_SPACE_BUDGET", 2 ** 3 + 1)
    gendecomp.canonical_decomposition(b2, 1, 2, (2, 1), samples=3)
    assert set(budgets) == {2 ** 20 + 1}
    assert shared and max(shared) <= 2 ** 3 + 1


SAMPLED_ENTRY_POINTS = {
    "is_schur_root": lambda d, r, n: gendecomp.is_schur_root(
        d, 1, 2, r, samples=n),
    "canonical_decomposition": lambda d, r, n:
        gendecomp.canonical_decomposition(d, 1, 2, r, samples=n),
    "k_independence_check": lambda d, r, n: gendecomp.k_independence_check(
        d, 2, r, 2, samples=n),
    "parameter_estimate": lambda d, r, n: homext.parameter_estimate(
        d, 1, 2, r, samples=n),
    "ext_generic": lambda d, r, n: gendecomp.ext_generic(
        d, 1, 2, r, r, samples=n),
}


@pytest.mark.parametrize("samples", [0, -2])
@pytest.mark.parametrize("r", [(0, 0), (1, 0), (1, 1)])
@pytest.mark.parametrize("entry", sorted(SAMPLED_ENTRY_POINTS))
def test_samples_below_one_rejected(b2, entry, r, samples):
    # before, the outcome hung on r: canonical_decomposition returned a
    # report at (1, 0) and raised from inside ext_generic at (1, 1), and
    # parameter_estimate raised only on a sampled space
    with pytest.raises(ValidationError, match="samples must be >= 1"):
        SAMPLED_ENTRY_POINTS[entry](b2, r, samples)


def test_find_rigid_trials(b2):
    # before, trials=-3 returned a report; trials=0 goes straight to the
    # scan
    with pytest.raises(ValidationError, match="trials must be >= 0"):
        homext.find_rigid(b2, 1, 2, (1, 1), trials=-3)
    res = homext.find_rigid(b2, 1, 2, (1, 1), trials=0)
    assert res.found() and res.exhaustive
