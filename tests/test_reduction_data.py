"""The per-module reduction record of flagvar.

`fiber_of_reduction` and `reduce_flag` read one memoized record per module
(the reduction, its level-1 shadow and the blocks of eps^(k-1), after both
rank vectors are checked).  The fibers must equal the ones the ring-chart
reference computes from scratch on every call, a module must be reduced
once, the entry must die with its module, a failed build must keep
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
from reference_linalg import quotient_map

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


def _points(fib, p):
    """The layers of all points of a non-empty fiber."""
    return {fib.flag_at(np.array(c, dtype=np.int64)).layers
            for c in itertools.product(range(p), repeat=fib.dimension)}


def assert_same_fiber(m, base, rng) -> str:
    """The memoized fiber equals the per-call reference in emptiness,
    dimensions, particular flag and point set; the points of a few
    coefficient vectors are points of the reference fiber (the two kernel
    bases may differ, so a vector need not name the same point).  Returns
    the fiber's kind."""
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
    points = _points(want, m.p)
    assert _points(got, m.p) == points
    for coeffs in _coefficient_vectors(want.dimension, m.p, rng):
        assert got.flag_at(coeffs).layers in points
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
                    lengths.add(len(base.brseq))
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
                        seen[name, len(base.brseq)] += 1
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
        flags = list(flagvar.iter_flags(m, SEQS[2]))
        assert len(bases) > 2 and flags
        reduces = _counting(monkeypatch, reduction, "reduce")
        records = _counting(monkeypatch, flagvar, "_ReductionData")
        for base in bases:
            flagvar.fiber_of_reduction(m, base)
        for flag in flags:
            flagvar.reduce_flag(m, flag)
        assert len(reduces) == 1 and reduces[0][0] is m
        # the blocks of eps^(k-1) are built once, with the record
        assert len(records) == 1

    def test_reduce_flag_and_fiber_share_the_record(self, a2, monkeypatch):
        m = hmod.random_locally_free(a2, 3, 2, (2, 1), seed=22)
        flag = list(flagvar.iter_flags(m, SEQS[0]))[0]
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
        # the blocks Eps_i^((k-1)c_i), read-only, with the reduction's
        # subspaces as images
        for i, block in enumerate(data.blocks):
            assert np.array_equal(block, la.matpow(
                m.eps[i], (m.k - 1) * m.datum.d[i], m.p))
            assert not block.flags.writeable
            assert la.image(block, m.p) == data.red.subspaces[i]

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
        """The blocks of eps^(k-1) are the last part of the record built:
        when they fail, nothing is stored, and the next call builds it."""
        m = hmod.random_locally_free(a2, 2, 2, (2, 1), seed=26)
        base = next(flagvar.iter_flags(reduction.reduce(m).module,
                                       SEQS[0]))
        original = hmod.epsilon_blocks

        def broken(mod, a=1):
            if mod is m:
                raise InternalCheckError("no blocks")
            return original(mod, a)

        monkeypatch.setattr(hmod, "epsilon_blocks", broken)
        for _ in range(2):
            with pytest.raises(InternalCheckError, match="no blocks"):
                flagvar.fiber_of_reduction(m, base)
            assert m not in flagvar._REDUCTION_DATA
        monkeypatch.undo()
        assert not flagvar.fiber_of_reduction(m, base).empty
        assert len(flagvar._REDUCTION_DATA[m].blocks) == m.n

    def test_degenerate_central_basis_raises_each_time(self, a2,
                                                       monkeypatch):
        """A record whose blocks of eps^(k-1) are degenerate (zero) makes
        every base chain fail the freeness over the center, on every
        call."""
        m = hmod.random_locally_free(a2, 3, 2, (2, 1), seed=27)
        base = next(flagvar.iter_flags(reduction.reduce(m).module,
                                       SEQS[0]))
        original = hmod.epsilon_blocks
        monkeypatch.setattr(hmod, "epsilon_blocks", lambda mod, a=1: tuple(
            np.zeros_like(b) for b in original(mod, a)) if mod is m
            else original(mod, a))
        for _ in range(2):
            with pytest.raises(FlagNotInReduction,
                               match="free over the center"):
                flagvar.fiber_of_reduction(m, base)
            blocks = flagvar._REDUCTION_DATA[m].blocks
            assert not any(b.any() for b in blocks)


def _warm_case(a2):
    """A module whose fiber record is built, with its base flags."""
    m = hmod.random_locally_free(a2, 2, 2, (2, 1), seed=8)
    bar = reduction.reduce(m).module
    bases = list(flagvar.iter_flags(bar, SEQS[2]))
    assert len(bases) > 2
    assert not flagvar.fiber_of_reduction(m, bases[0]).empty
    return m, bases


class TestPerBaseChecksWithWarmRecord:
    """Each check that depends on the base still raises on the second and
    later calls, once the record of the module is built."""

    def test_base_of_another_module(self, a2):
        m, _ = _warm_case(a2)
        other = hmod.free_module(a2, 1, 2, (2, 1))
        base = list(flagvar.iter_flags(other, SEQS[2]))[0]
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
        bases = list(flagvar.iter_flags(reduction.reduce(m).module,
                                         SEQS[2]))
        original = flagvar.FlagOfSubmodules._check

        def check(self):
            # the first loop's sub block on the first layer, off by the
            # identity, so that its residue leaves eps^(k-1) M
            splits, conn = original(self)
            if not any(self is base for base in bases[:3]):
                return splits, conn
            sides, ((sub, quot), *rest) = splits[0]
            wrong = (sub + la.identity(sub.shape[0])) % m.p
            return [(sides, [(wrong, quot), *rest]), *splits[1:]], conn

        monkeypatch.setattr(flagvar.FlagOfSubmodules, "_check", check)
        for base in bases[:3]:
            with pytest.raises(FlagNotInReduction, match="invariant"):
                flagvar.fiber_of_reduction(m, base)
        assert len(flagvar._REDUCTION_DATA[m].blocks) == m.n

    def test_hom_cross_check(self, a2, monkeypatch):
        m, bases = _warm_case(a2)
        original = flagvar._fiber_expected_dimension
        monkeypatch.setattr(flagvar, "_fiber_expected_dimension",
                            lambda mbar, base: original(mbar, base) + 1)
        for base in bases[:2]:
            with pytest.raises(InternalCheckError, match="cross-check"):
                flagvar.fiber_of_reduction(m, base)

    def test_built_flags_validated(self, a2, monkeypatch):
        m = hmod.random_locally_free(a2, 3, 2, (2, 1), seed=8)
        bases = list(flagvar.iter_flags(reduction.reduce(m).module,
                                         SEQS[2]))
        assert not flagvar.fiber_of_reduction(m, bases[0]).empty
        original = la.solve

        def off_solution(a, b, p):
            # a particular solution plus a vector the system does not kill
            part, kernel = original(a, b, p)
            unit = la.identity(a.shape[1])[
                np.flatnonzero(a.any(axis=0))[0]]
            return (part + unit) % p, kernel

        monkeypatch.setattr(la, "solve", off_solution)
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
            (layer[i].basis @ quotient_map(m.dims[i],
                                           red.subspaces[i])[0].T) % m.p,
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
        f = list(flagvar.iter_flags(other, [(1, 1), (0, 1)]))[0]
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
