"""The one split of a module along invariant subspaces (`hmod._split` and
its block rule `hmod._blocks`) against the constructions it replaces, kept
as oracles in conftest: `submodule`, `quotient`, `sub_quotient`, and the
tensor modules of a flag against the two chains of its tangent Hom."""

import itertools

import numpy as np
import pytest

from cartanquiver import flagvar, hmod, homext
from cartanquiver.errors import (
    NotInvariant,
    NotLocallyFree,
    ShapeMismatch,
    ValidationError,
)
from cartanquiver.exactlinalg import Subspace

from conftest import (
    contains,
    reference_flag_tensor_modules,
    reference_quotient,
    reference_sub_quotient,
    reference_submodule,
)

DATA = ("a2", "b2", "b2_rev", "kronecker", "g2")
# (k, p, rank) of one random module per datum
MODULES = [(1, 2, (2, 1)), (1, 3, (1, 2)), (2, 2, (1, 1)), (2, 3, (1, 1)),
           (2, 5, (1, 1)), (3, 2, (1, 1)), (3, 3, (1, 1)), (1, 5, (2, 1)),
           (1, 2, (2, 2)), (2, 2, (2, 1))]


def _outcome(fn, *args):
    """The result of fn(*args), or the class of the error it raises."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return type(exc)


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_module(a, b):
    return (a.k, a.p, a.dims) == (b.k, b.p, b.dims) and all(
        _same(x, y) for x, y in zip(a.eps, b.eps)) and all(
        _same(x, y) for key in a.arrows
        for x, y in zip(a.arrows[key], b.arrows[key]))


def _same_quotient(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return (_same_module(a.module, b.module)
            and all(map(_same, a.projections, b.projections))
            and all(map(_same, a.sections, b.sections)))


def _scan(m, rng, randoms):
    """Every locally free invariant tuple of m, then `randoms` random
    tuples (most of them not invariant)."""
    for e in itertools.product(*(range(x + 1) for x in hmod.rank_vector(m))):
        yield from flagvar.iter_locally_free_submodules(m, e)
    for _ in range(randoms):
        yield [Subspace.from_rows(
            rng.integers(0, m.p, size=(rng.integers(0, d + 1), d)), d, m.p)
            for d in m.dims]


def test_split_matches_reference(request):
    """Sub and quotient modules, projections and sections byte-identical to
    the oracles, quotients at the levels k, k - 1 and 1; every tuple the
    oracles reject raises the same class."""
    accepted = rejected = 0
    for name in DATA:
        datum = request.getfixturevalue(name)
        rng = np.random.default_rng(1)
        for k, p, r in MODULES:
            m = hmod.random_locally_free(datum, k, p, r, seed=(k, p))
            for u in _scan(m, rng, 12):
                got = _outcome(hmod.submodule, m, u)
                want = _outcome(reference_submodule, m, u)
                if isinstance(want, type):
                    assert got is want
                else:
                    assert _same_module(got, want[0])
                for level in {m.k, m.k - 1, 1} - {0}:
                    assert _same_quotient(
                        _outcome(hmod.quotient, m, u, level),
                        _outcome(reference_quotient, m, u, level))
                got = _outcome(hmod.sub_quotient, m, u)
                want = _outcome(reference_sub_quotient, m, u)
                if isinstance(want, type):
                    assert got is want
                    rejected += 1
                    continue
                assert _same_module(got.sub, want[0])
                assert _same_quotient(got.quotient, want[2])
                accepted += 1
    assert accepted >= 600 and rejected >= 400


# subquotient ranks of flags of a rank-(2, 1) module
SEQS = [((1, 0), (1, 1)), ((1, 1), (1, 0)), ((1, 0), (0, 1), (1, 0)),
        ((0, 1), (1, 0), (1, 0)), ((1, 0), (1, 0), (0, 1)),
        ((1, 1), (0, 0), (1, 0))]


def _flag_modules(datum):
    """Rank-(2, 1) modules with many flags: free, and a direct sum."""
    for k, p in ((1, 2), (2, 2), (1, 3)):
        yield hmod.free_module(datum, k, p, (2, 1))
        yield hmod.direct_sum(
            hmod.random_locally_free(datum, k, p, (1, 0), seed=1),
            hmod.random_locally_free(datum, k, p, (1, 1), seed=2))


@pytest.mark.parametrize("name", DATA)
def test_connectors_match_reference(request, name, monkeypatch):
    """The two chains that tangent_dimension hands to the Hom solve equal
    the tensor modules assembled from coordinates and induced maps, map
    for map: dims, labels, byte-identical matrices (slot maps and
    connectors), vertex indices and order."""
    solved = []
    original = homext._hom_basis

    def recorded(x, y):
        solved.append((x, y))
        return original(x, y)

    monkeypatch.setattr(homext, "_hom_basis", recorded)
    flags = 0
    for m in _flag_modules(request.getfixturevalue(name)):
        for seq in SEQS:
            for flag in flagvar.iter_flags(m, seq):
                del solved[:]
                flagvar.tangent_dimension(m, flag)
                [got] = solved
                want = reference_flag_tensor_modules(m, flag)
                for x, y in zip(got, want):
                    assert (x.p, x.dims) == (y.p, y.dims)
                    mine, theirs = x.maps_with_labels(), y.maps_with_labels()
                    assert len(mine) == len(theirs)
                    for (label, a, *ends), (other, b, *want_ends) in zip(
                            mine, theirs):
                        assert (label, ends) == (other, want_ends)
                        assert _same(a, b)
                flags += 1
    assert flags >= 60


class TestChecks:
    def test_other_prime_or_ambient_rejected(self, a2):
        m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)
        other_prime = [Subspace.zero(d, 2) for d in m.dims]
        wide = [Subspace.zero(d + 1, 3) for d in m.dims]
        short = [Subspace.zero(m.dims[0], 3)]
        for subs in (other_prime, wide, short):
            for build in (hmod.quotient, hmod.sub_quotient, hmod.submodule):
                with pytest.raises(ShapeMismatch):
                    build(m, subs)

    def test_quotient_maps_only_for_quotients(self, a2, monkeypatch):
        """submodule builds no quotient map; quotient and sub_quotient build
        one per vertex."""
        m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)
        u = next(flagvar.iter_locally_free_submodules(m, (1, 1)))
        built = []
        original = hmod.la.quotient_map

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(hmod.la, "quotient_map", counted)
        hmod.submodule(m, u)
        assert built == []
        for build in (hmod.quotient, hmod.sub_quotient):
            build(m, u)
            assert len(built) == m.n
            built.clear()

    def test_one_invariance_test_per_map(self, a2, monkeypatch):
        m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)
        u = next(flagvar.iter_locally_free_submodules(m, (1, 1)))
        calls = []
        original = hmod._blocks

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(hmod, "_blocks", counted)
        hmod.sub_quotient(m, u)
        assert calls == [label for label, *_ in m.maps_with_labels()]

    def test_blocks_of_identity(self, a2):
        """Between nested layers the blocks of the identity are the
        inclusion in RREF coordinates and the projection between the
        quotients; from a larger subspace to a smaller one it raises."""
        m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)
        flag = next(flagvar.iter_flags(m, ((1, 0), (0, 1), (1, 0))))
        small, big = flag.layers
        sides = []
        for layer in flag.layers:
            q = hmod.quotient(m, layer)
            sides.append(list(zip(layer, q.projections, q.sections)))
        for i, d in enumerate(m.dims):
            incl, proj = hmod._blocks("id", np.eye(d, dtype=np.int64),
                                      sides[0][i], sides[1][i])
            assert _same(small[i].basis.T, (big[i].basis.T @ incl) % 3)
            assert _same(proj, (sides[1][i][1] @ sides[0][i][2]) % 3)
        assert big[1].dim > small[1].dim
        with pytest.raises(NotInvariant):
            hmod._blocks("id", np.eye(m.dims[1], dtype=np.int64),
                         sides[1][1], sides[0][1])


class TestTangentInputs:
    """tangent_dimension rejects what FlagOfSubmodules.validate rejects."""

    @pytest.fixture
    def m(self, a2):
        return hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)

    def test_zero_layers(self, m):
        zero = tuple(Subspace.zero(d, 3) for d in m.dims)
        flag = flagvar.FlagOfSubmodules(m, ((1, 0), (0, 1), (1, 0)),
                                        (zero, zero))
        with pytest.raises(ShapeMismatch):
            flag.validate()
        with pytest.raises(ShapeMismatch):
            flagvar.tangent_dimension(m, flag)

    def test_layer_not_free(self, m):
        eps_m = tuple(Subspace.from_rows(e.T, d, 3)
                      for e, d in zip(hmod.epsilon_blocks(m), m.dims))
        flag = flagvar.FlagOfSubmodules(m, ((1, 0), (1, 1)), (eps_m,))
        with pytest.raises(NotLocallyFree):
            flag.validate()
        with pytest.raises(NotLocallyFree):
            flagvar.tangent_dimension(m, flag)

    def test_counts_and_sums(self, m):
        flag = next(flagvar.iter_flags(m, ((1, 0), (1, 1))))
        for brseq, layers in ((((1, 0), (1, 1)), ()),
                              (((1, 0), (1, 0)), flag.layers),
                              (((2, 1),), flag.layers)):
            bad = flagvar.FlagOfSubmodules(m, brseq, layers)
            with pytest.raises(ShapeMismatch):
                bad.validate()
            with pytest.raises(ShapeMismatch):
                flagvar.tangent_dimension(m, bad)

    def test_layers_not_nested(self, a2):
        m = hmod.free_module(a2, 2, 3, (2, 1))
        seq = ((1, 0), (0, 1), (1, 0))
        flags = flagvar.enumerate_flags(m, seq)
        mixed = [(a.layers[0], b.layers[1]) for a, b in
                 itertools.product(flags, flags)
                 if not all(contains(v, u) for u, v in zip(a.layers[0],
                                                          b.layers[1]))]
        assert mixed
        for layers in mixed[:5]:
            flag = flagvar.FlagOfSubmodules(m, seq, layers)
            with pytest.raises(ValidationError, match="nested"):
                flag.validate()
            with pytest.raises(NotInvariant, match="inclusion"):
                flagvar.tangent_dimension(m, flag)

    def test_unchanged_on_flags(self, a2, b2, kronecker):
        """Every flag of iter_flags: the same tangent dimension as the Hom
        between the oracle tensor modules."""
        for datum in (a2, b2, kronecker):
            for m, seq in itertools.product(_flag_modules(datum), SEQS):
                for flag in flagvar.iter_flags(m, seq):
                    want = flagvar.hom_tensor(
                        *reference_flag_tensor_modules(m, flag)).dim
                    assert flagvar.tangent_dimension(m, flag) == want

