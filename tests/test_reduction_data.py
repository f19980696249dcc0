"""The per-module reduction record of flagvar.

`fiber_of_reduction` and `reduce_flag` read one memoized record per module
(the reduction, both rank vectors and, per slot count, the central
coordinates and generator rings of the repetitive chain).  The fibers must
equal the ones computed from scratch on every call, a module must be
reduced once, the entry must die with its module, a failed build must keep
nothing, and every check that depends on the base must still run on every
call.
"""

import collections
import gc
import itertools
import weakref

import numpy as np
import pytest

from cartanquiver import exactlinalg as la
from cartanquiver import flagvar, hmod, reduction
from cartanquiver.errors import (
    FlagNotInReduction,
    InternalCheckError,
    NotInvariant,
    NotLocallyFree,
    RelationH1Violated,
    ValidationError,
)

from conftest import (
    n_module,
    reference_fiber_expected_dimension,
    reference_fiber_of_reduction,
)

# two-step sequences, the second of which is cut out by arrow closure, and
# a three-step sequence
SEQS = ([(1, 0), (1, 1)], [(1, 1), (1, 0)], [(1, 0), (1, 0), (0, 1)])


def _outcome(fiber, m, base):
    try:
        return fiber(m, base)
    except FlagNotInReduction as exc:
        return type(exc)


def _coefficient_vectors(dim, p, rng):
    """A few coefficient vectors of a fiber: zero, all ones, the last unit
    vector and two random ones."""
    vecs = [np.zeros(dim, dtype=np.int64), np.ones(dim, dtype=np.int64)]
    if dim:
        vecs.append(np.eye(dim, dtype=np.int64)[-1])
    vecs += [rng.integers(0, p, dim) for _ in range(2)]
    return vecs


def assert_same_fiber(m, base, rng) -> str:
    """The memoized fiber equals the per-call reference; returns its kind."""
    want = _outcome(reference_fiber_of_reduction, m, base)
    got = _outcome(flagvar.fiber_of_reduction, m, base)
    if want is FlagNotInReduction:
        assert got is FlagNotInReduction
        return "not in reduction"
    assert got.empty == want.empty
    assert got.dimension == want.dimension
    assert got.expected_dimension == want.expected_dimension
    if want.empty:
        return "empty"
    assert got.particular.layers == want.particular.layers
    for coeffs in _coefficient_vectors(want.dimension, m.p, rng):
        assert got.flag_at(coeffs).layers == want.flag_at(coeffs).layers
    return "affine" if want.dimension else "point"


class TestAgainstPerCallReference:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name", ["a2", "b2"])
    def test_every_base_flag(self, request, name, k, p):
        datum = request.getfixturevalue(name)
        rng = np.random.default_rng((k, p))
        mods = [(hmod.random_locally_free(datum, k, p, (2, 1),
                                          seed=(5, k, p)), SEQS)]
        if name == "a2":
            mods.append((n_module(datum, k, p), ([(1, 1), (1, 1)],)))
        kinds = []
        lengths = set()
        for m, seqs in mods:
            bar = reduction.reduce(m).module
            for brseq in seqs:
                for base in flagvar.iter_flags(bar, brseq):
                    kinds.append(assert_same_fiber(m, base, rng))
                    lengths.add(base.length)
        assert lengths == {2, 3}
        assert "affine" in kinds
        if name == "a2" and k == 3:
            assert "empty" in kinds


# (datum, rank, sequences) of the shadow cross-check scan; None stands for
# the N-module of rank (2, 2)
SHADOW_SCAN = [
    ("a2", (2, 1), SEQS),
    ("a2", None, ([(1, 1), (1, 1)],)),
    ("b2", (2, 1), SEQS),
    ("b2", (1, 2), ([(0, 1), (1, 1)], [(1, 1), (0, 1)],
                    [(0, 1), (1, 0), (0, 1)])),
    ("g2", (1, 1), ([(1, 0), (0, 1)], [(0, 1), (1, 0)])),
    ("kronecker", (1, 2), ([(0, 1), (1, 1)], [(1, 1), (0, 1)],
                           [(0, 1), (1, 0), (0, 1)])),
    ("a3", (1, 1, 1), ([(1, 0, 0), (0, 1, 1)], [(0, 1, 1), (1, 0, 0)],
                       [(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
    ("a3", (1, 2, 1), ([(0, 1, 0), (1, 1, 1)], [(1, 1, 0), (0, 1, 1)],
                       [(0, 1, 0), (1, 0, 1), (0, 1, 0)])),
]


class TestShadowCrossCheck:
    def test_equals_mod_epsilon_hom(self, request):
        """The level-1 tangent dimension in the shadow of the record equals
        dim Hom between the mod-eps reductions of the base chain and of its
        quotient chain, on every base flag of the scan."""
        seen = collections.Counter()
        for name, r, seqs in SHADOW_SCAN:
            datum = request.getfixturevalue(name)
            for k, p in itertools.product((2, 3, 4), (2, 3)):
                m = (n_module(datum, k, p) if r is None else
                     hmod.random_locally_free(datum, k, p, r, seed=(7, k, p)))
                if (k, p) == (4, 3) and m.total_dim() > 16:
                    continue
                data = flagvar._reduction_data(m)
                for brseq in seqs:
                    for base in flagvar.iter_flags(data.red.module, brseq):
                        got = flagvar._fiber_expected_dimension(data.shadow,
                                                                base)
                        assert got == reference_fiber_expected_dimension(
                            data.red.module, base)
                        seen[name, base.length] += 1
        assert sum(seen.values()) >= 1000
        assert all(seen[name, length] for name, _, _ in SHADOW_SCAN
                   for length in (2, 3) if name != "g2")


def _counting(monkeypatch, module, name):
    """Count the calls of module.name from now on."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestMemo:
    def test_one_reduction_per_module(self, a2, monkeypatch):
        m = hmod.random_locally_free(a2, 2, 2, (2, 1), seed=21)
        bar = reduction.reduce(m).module
        bases = [base for brseq in SEQS
                 for base in flagvar.iter_flags(bar, brseq)]
        flags = flagvar.enumerate_flags(m, SEQS[2])
        assert len(bases) > 2 and flags
        reduces = _counting(monkeypatch, reduction, "reduce")
        generators = _counting(monkeypatch, flagvar, "_algebra_generators")
        for base in bases:
            flagvar.fiber_of_reduction(m, base)
        for flag in flags:
            flagvar.reduce_flag(m, flag)
        assert len(reduces) == 1 and reduces[0][0] is m
        # the generator rings are built once per slot count (1 and 2)
        assert sorted(args[1] for args in generators) == [1, 2]

    def test_reduce_flag_and_fiber_share_the_record(self, a2, monkeypatch):
        m = hmod.random_locally_free(a2, 3, 2, (2, 1), seed=22)
        flag = flagvar.enumerate_flags(m, SEQS[0])[0]
        reduces = _counting(monkeypatch, reduction, "reduce")
        image = flagvar.reduce_flag(m, flag)
        fib = flagvar.fiber_of_reduction(m, image)
        assert not fib.empty
        assert len(reduces) == 1

    def test_entry_dies_with_module(self, a2):
        m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=23)
        base = next(flagvar.iter_flags(reduction.reduce(m).module,
                                       SEQS[0]))
        fib = flagvar.fiber_of_reduction(m, base)
        assert m in flagvar._REDUCTION_DATA
        gc.collect()
        size = len(flagvar._REDUCTION_DATA)
        ref = weakref.ref(m)
        del m, fib
        gc.collect()
        assert ref() is None
        assert len(flagvar._REDUCTION_DATA) == size - 1

    def test_record_holds_no_module_reference(self, a2):
        m = hmod.random_locally_free(a2, 2, 2, (2, 1), seed=24)
        base = next(flagvar.iter_flags(reduction.reduce(m).module,
                                       SEQS[2]))
        flagvar.fiber_of_reduction(m, base)
        data = flagvar._REDUCTION_DATA[m]
        assert m not in gc.get_referents(data)
        assert set(data.chains) == {2}

    def test_not_locally_free_stores_nothing(self, a2):
        # dim 1 at loop order 2: not free over F_2[eps]/(eps^2)
        m = hmod.make_module(a2, 2, 2, [la.zeros(1, 1), la.zeros(1, 1)], {})
        flag = flagvar.FlagOfSubmodules(m, ((1, 1),), ())
        for _ in range(2):
            with pytest.raises(NotLocallyFree):
                flagvar.fiber_of_reduction(m, flag)
            with pytest.raises(NotLocallyFree):
                flagvar.reduce_flag(m, flag)
            assert m not in flagvar._REDUCTION_DATA

    def test_failed_reduction_stores_nothing(self, a2, monkeypatch):
        m = hmod.random_locally_free(a2, 2, 2, (2, 1), seed=25)
        base = next(flagvar.iter_flags(reduction.reduce(m).module,
                                       SEQS[0]))

        def broken(mod):
            raise NotInvariant("a map does not descend to the quotient")

        monkeypatch.setattr(reduction, "reduce", broken)
        for _ in range(2):
            with pytest.raises(NotInvariant):
                flagvar.fiber_of_reduction(m, base)
            assert m not in flagvar._REDUCTION_DATA
        monkeypatch.undo()
        assert not flagvar.fiber_of_reduction(m, base).empty
        assert m in flagvar._REDUCTION_DATA

    def test_invalid_reduction_stores_nothing(self, a2, monkeypatch):
        m = hmod.random_locally_free(a2, 3, 2, (2, 1), seed=25)
        base = next(flagvar.iter_flags(reduction.reduce(m).module,
                                       SEQS[0]))

        def invalid(mod):
            raise RelationH1Violated(0)

        # the reduced module is validated when the record is built
        monkeypatch.setattr(hmod, "validate_module", invalid)
        for _ in range(2):
            with pytest.raises(RelationH1Violated):
                flagvar.fiber_of_reduction(m, base)
            assert m not in flagvar._REDUCTION_DATA

    def test_failed_chain_build_stores_nothing(self, a2, monkeypatch):
        m = hmod.random_locally_free(a2, 2, 2, (2, 1), seed=26)
        base = next(flagvar.iter_flags(reduction.reduce(m).module,
                                       SEQS[0]))
        flagvar.reduce_flag(m, flagvar.enumerate_flags(m, SEQS[0])[0])

        def no_commute(self, ops):
            raise InternalCheckError(
                "operator does not commute with the central nilpotent")

        monkeypatch.setattr(flagvar._CentralCoordinates, "operator_to_ring",
                            no_commute)
        for _ in range(2):
            with pytest.raises(InternalCheckError, match="commute"):
                flagvar.fiber_of_reduction(m, base)
            assert flagvar._REDUCTION_DATA[m].chains == {}
        monkeypatch.undo()
        assert not flagvar.fiber_of_reduction(m, base).empty
        assert set(flagvar._REDUCTION_DATA[m].chains) == {1}

    def test_degenerate_central_basis_raises_each_time(self, a2,
                                                       monkeypatch):
        m = hmod.random_locally_free(a2, 3, 2, (2, 1), seed=27)
        base = next(flagvar.iter_flags(reduction.reduce(m).module,
                                       SEQS[0]))
        original = flagvar._CentralCoordinates.__init__

        def zero_basis(self, eps_total, k, p):
            original(self, eps_total, k, p)
            self.basis = np.zeros_like(self.basis)

        monkeypatch.setattr(flagvar._CentralCoordinates, "__init__",
                            zero_basis)
        for _ in range(2):
            with pytest.raises(InternalCheckError, match="degenerate"):
                flagvar.fiber_of_reduction(m, base)
            assert flagvar._REDUCTION_DATA[m].chains == {}


def _warm_case(a2):
    """A module whose fiber record is built, with its base flags."""
    m = hmod.random_locally_free(a2, 2, 2, (2, 1), seed=8)
    bar = reduction.reduce(m).module
    bases = flagvar.enumerate_flags(bar, SEQS[2])
    assert len(bases) > 2
    assert not flagvar.fiber_of_reduction(m, bases[0]).empty
    return m, bases


class TestPerBaseChecksWithWarmRecord:
    """Each check that depends on the base still raises on the second and
    later calls, once the record of the module is built."""

    def test_base_of_another_module(self, a2):
        m, _ = _warm_case(a2)
        other = hmod.free_module(a2, 1, 2, (2, 1))
        base = flagvar.enumerate_flags(other, SEQS[2])[0]
        for _ in range(3):
            with pytest.raises(FlagNotInReduction, match="does not live"):
                flagvar.fiber_of_reduction(m, base)

    def test_base_not_closed_under_arrows(self, a2):
        m, bases = _warm_case(a2)
        bar = bases[0].module
        # a flag of another module of the same rank, put on the reduction
        # of m; its layers are not invariant there
        broken = None
        for seed in range(20):
            other = hmod.random_locally_free(a2, 1, 2, (2, 1), seed=seed)
            for flag in flagvar.iter_flags(other, SEQS[1]):
                candidate = flagvar.FlagOfSubmodules(bar, flag.brseq,
                                                     flag.layers)
                try:
                    candidate.validate()
                except ValidationError:
                    broken = candidate
            if broken is not None:
                break
        assert broken is not None
        for _ in range(3):
            with pytest.raises(FlagNotInReduction, match="base flag invalid"):
                flagvar.fiber_of_reduction(m, broken)

    def test_invariance(self, a2, monkeypatch):
        m = hmod.random_locally_free(a2, 2, 2, (2, 1), seed=8)
        bases = flagvar.enumerate_flags(reduction.reduce(m).module,
                                        SEQS[2])
        original = flagvar._CentralCoordinates.operator_to_ring

        def shifted(self, ops):
            rings = original(self, ops).copy()
            rings[-1, :, :, 0] = (rings[-1, :, :, 0] + 1) % self.p
            return rings

        monkeypatch.setattr(flagvar._CentralCoordinates, "operator_to_ring",
                            shifted)
        for base in bases[:3]:
            with pytest.raises(FlagNotInReduction, match="invariant"):
                flagvar.fiber_of_reduction(m, base)
        assert set(flagvar._REDUCTION_DATA[m].chains) == {2}

    def test_chart_normalization(self, a2, monkeypatch):
        m, bases = _warm_case(a2)
        monkeypatch.setattr(flagvar, "_rinv", lambda a, p: 0 * a)
        for base in bases[:2]:
            with pytest.raises(InternalCheckError, match="normalization"):
                flagvar.fiber_of_reduction(m, base)

    def test_hom_cross_check(self, a2, monkeypatch):
        m, bases = _warm_case(a2)
        original = flagvar._fiber_expected_dimension
        monkeypatch.setattr(flagvar, "_fiber_expected_dimension",
                            lambda mbar, base: original(mbar, base) + 1)
        for base in bases[:2]:
            with pytest.raises(InternalCheckError, match="cross-check"):
                flagvar.fiber_of_reduction(m, base)

    def test_built_flags_validated(self, a2, monkeypatch):
        m, bases = _warm_case(a2)

        def zero_rows(self, ring_mat):
            return la.zeros(ring_mat.shape[1] * self.k, self.dim)

        monkeypatch.setattr(flagvar._CentralCoordinates,
                            "ring_columns_to_rows", zero_rows)
        for base in bases[:2]:
            with pytest.raises(ValidationError):
                flagvar.fiber_of_reduction(m, base)

    def test_back_check(self, a2, monkeypatch):
        m, bases = _warm_case(a2)
        other = flagvar.reduce_flag(
            m, flagvar.fiber_of_reduction(m, bases[1]).particular)
        monkeypatch.setattr(flagvar, "_reduced_flag",
                            lambda red, flag: other)
        for base in (bases[0], bases[2]):
            with pytest.raises(InternalCheckError, match="reduce to base"):
                flagvar.fiber_of_reduction(m, base)


def reference_reduce_flag(m, flag):
    """The old reduce_flag: project the layers, then validate the image."""
    red = reduction.reduce(m)
    layers = tuple(
        tuple(la.Subspace.from_rows(
            (layer[i].basis @ red.projections[i].T) % m.p,
            red.module.dims[i], m.p) for i in range(m.n))
        for layer in flag.layers)
    out = flagvar.FlagOfSubmodules(red.module, flag.brseq, layers)
    out.validate()
    return out


class TestReduceFlagChecksTheFlag:
    def test_flag_of_another_module_rejected(self, a2):
        m = hmod.random_locally_free(a2, 3, 2, (2, 1), seed=3)
        other = hmod.random_locally_free(a2, 3, 2, (2, 1), seed=1003)
        f = next(flagvar.iter_flags(other, [(1, 1), (1, 0)]))
        with pytest.raises(ValidationError, match="not closed under arrow"):
            flagvar.FlagOfSubmodules(m, f.brseq, f.layers).validate()
        for _ in range(2):
            with pytest.raises(ValidationError,
                               match="not closed under arrow"):
                flagvar.reduce_flag(m, f)

    def test_wrong_ambient_rejected(self, a2):
        m = hmod.random_locally_free(a2, 2, 2, (2, 1), seed=4)
        other = hmod.free_module(a2, 2, 2, (1, 2))
        f = flagvar.enumerate_flags(other, [(1, 1), (0, 1)])[0]
        with pytest.raises(ValidationError):
            flagvar.reduce_flag(m, f)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name", ["a2", "b2"])
    def test_valid_flags_reduce_as_before(self, request, name, k):
        datum = request.getfixturevalue(name)
        m = hmod.random_locally_free(datum, k, 3, (2, 1), seed=(6, k))
        seen = 0
        for brseq in SEQS:
            for flag in itertools.islice(flagvar.iter_flags(m, brseq), 12):
                got = flagvar.reduce_flag(m, flag)
                want = reference_reduce_flag(m, flag)
                assert got.brseq == want.brseq
                assert got.layers == want.layers
                assert hmod.modules_equal(got.module, want.module)
                seen += 1
        assert seen > 12
