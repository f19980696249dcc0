"""The one flag check (`flagvar._flag_blocks`, on the block pass of a split)
against the check FlagOfSubmodules._check wrote by hand, and
`hmod.Quotient.induced` against the induced maps from projections and
sections; both kept as oracles in conftest."""

import itertools

import numpy as np
import pytest

from cartanquiver import flagvar, hmod, homext, reduction
from cartanquiver import exactlinalg as la
from cartanquiver.errors import (
    FlagNotInReduction,
    InternalCheckError,
    NotInvariant,
    ValidationError,
)
from cartanquiver.exactlinalg import Subspace

from conftest import contains, reference_flag_check, reference_induced

DATA = ("a2", "b2", "kronecker")
# subquotient ranks of flags of a rank-(2, 1) module
SEQS = [((1, 0), (1, 1)), ((1, 1), (1, 0)), ((0, 1), (2, 0)),
        ((1, 0), (0, 1), (1, 0)), ((0, 1), (1, 0), (1, 0)),
        ((1, 0), (1, 0), (0, 1))]


def _raised(fn, *args):
    """The ValidationError fn(*args) raises, or None."""
    try:
        fn(*args)
    except ValidationError as exc:
        return exc
    return None


@pytest.mark.parametrize("name", DATA)
def test_every_flag_passes_both_checks(request, name):
    datum = request.getfixturevalue(name)
    flags = steps = 0
    for k, p in itertools.product((1, 2, 3), (2, 3)):
        m = hmod.random_locally_free(datum, k, p, (2, 1), seed=(k, p))
        for seq in SEQS:
            for flag in flagvar.iter_flags(m, seq):
                reference_flag_check(flag)
                flag.validate()
                flags += 1
                steps = max(steps, len(flag.brseq))
    assert flags >= 100 and steps == 3


def test_standard_loop_blocks_cost_no_rank(request, monkeypatch):
    """The flag check's freeness test (`hmod._not_free_rank`) ranks exactly
    the non-empty loop sub blocks that are not the standard Jordan matrix
    of their loop order."""
    ranked = []
    original = la.rank
    standard = other = 0
    for name, (k, p) in itertools.product(DATA, ((1, 2), (2, 3), (3, 2))):
        m = hmod.random_locally_free(request.getfixturevalue(name), k, p,
                                     (2, 1), seed=(k, p))
        flags = [flag for seq in SEQS for flag in flagvar.iter_flags(m, seq)]
        with monkeypatch.context() as mp:
            mp.setattr(la, "rank", lambda a, q: ranked.append(a)
                       or original(a, q))
            for flag in flags:
                ranked.clear()
                splits, _ = flagvar._flag_blocks(m, flag.brseq, flag.layers)
                loops = [(blocks[i][0], m.loop_order(i))
                         for _, blocks in splits for i in range(m.n)]
                want = [b for b, order in loops
                        if b.size and hmod._jordan_order(b) != order]
                assert len(ranked) == len(want)
                assert all(a is b for a, b in zip(ranked, want))
                standard += len(loops) - len(want)
                other += len(want)
    assert standard >= 100 and other >= 100


def _not_nested(flags):
    """Layer pairs of two flags of one 3-step sequence that are not
    nested."""
    for a, b in itertools.product(flags, flags):
        if not all(contains(v, u) for u, v in zip(a.layers[0], b.layers[1])):
            yield a.layers[0], b.layers[1]


def _widened(layer):
    """The layer in an ambient space one dimension larger."""
    return tuple(Subspace.from_rows(np.pad(u.basis, ((0, 0), (0, 1))),
                                    u.ambient + 1, u.p) for u in layer)


def _mutations(mbar, other):
    """(name, brseq, layers) of broken flags of mbar, a rank-(2, 1) module
    at level 2; `other` is a module with the same dimensions."""
    two, three = SEQS[0], SEQS[3]
    flag = next(flagvar.iter_flags(mbar, two))
    zero = tuple(Subspace.zero(d, mbar.p) for d in mbar.dims)
    yield "zero layer", two, (zero,)
    eps = tuple(la.image(b, mbar.p) for b in hmod.epsilon_blocks(mbar))
    yield "eps layer", two, (eps,)
    yield "layer count", two, ()
    yield "wrong sum", ((1, 0), (1, 0)), flag.layers
    yield "one step", ((2, 1),), flag.layers
    for layers in itertools.islice(
            _not_nested(list(flagvar.iter_flags(mbar, three))), 3):
        yield "not nested", three, layers
    for seq in (two, three):
        for theirs in flagvar.iter_flags(other, seq):
            if _raised(reference_flag_check, flagvar.FlagOfSubmodules(
                    mbar, seq, theirs.layers)) is not None:
                yield "other module", seq, theirs.layers
                break
    yield "wrong ambient", two, (_widened(flag.layers[0]),)


def _cases(request):
    for name in DATA:
        datum = request.getfixturevalue(name)
        for p in (2, 3):
            other = hmod.random_locally_free(datum, 2, p, (2, 1), seed=p + 10)
            for m in (hmod.random_locally_free(datum, 3, p, (2, 1), seed=p),
                      hmod.free_module(datum, 3, p, (2, 1))):
                yield m, reduction.reduce(m).module, other


def test_mutations_raise_one_class(request):
    """Every entry point that checks a flag raises the class the oracle
    raises (fiber_of_reduction as the cause of FlagNotInReduction).  Where
    the oracle raised a plain ValidationError for a layer that a map does
    not preserve, the block pass raises its subclass NotInvariant."""
    seen = set()
    count = 0
    for m, mbar, other in _cases(request):
        for what, brseq, layers in _mutations(mbar, other):
            flag = flagvar.FlagOfSubmodules(mbar, brseq, layers)
            want = type(_raised(reference_flag_check, flag))
            got = [_raised(flag.validate),
                   _raised(flagvar.tangent_dimension, mbar, flag),
                   _raised(flagvar.reduce_flag, mbar, flag)]
            classes = {type(exc) for exc in got}
            assert len(classes) == 1, (what, classes)
            got_class = classes.pop()
            assert got_class is want or (
                want is ValidationError and got_class is NotInvariant), what
            fiber = _raised(flagvar.fiber_of_reduction, m, flag)
            assert type(fiber) is FlagNotInReduction, what
            assert type(fiber.__cause__) is got_class, what
            if what == "not nested":
                assert all("nested" in str(exc) and "inclusion" in str(exc)
                           for exc in got)
            if what == "other module":
                assert all("not closed under arrow" in str(exc)
                           for exc in got)
            if what == "layer count":
                assert all("layer count" in str(exc) for exc in got)
            seen.add(what)
            count += 1
    assert len(seen) == 8 and count >= 80


class TestInduced:
    def test_matches_reference_on_homomorphisms(self, a2, b2, kronecker):
        checked = 0
        for datum in (a2, b2, kronecker):
            for k, p in ((2, 2), (2, 3), (3, 2)):
                m = hmod.random_locally_free(datum, k, p, (1, 1), seed=1)
                n = hmod.direct_sum(m, hmod.free_module(datum, k, p, (1, 0)))
                red_m, red_n = reduction.reduce(m), reduction.reduce(n)
                for f in homext.hom_space(m, n).elements:
                    got = red_n.induced(red_m, f)
                    want = reference_induced(red_n, red_m, f)
                    assert all(a.shape == b.shape and np.array_equal(a, b)
                               for a, b in zip(got, want))
                    checked += 1
        assert checked >= 20

    def test_same_refusals_as_reference(self, a2):
        rng = np.random.default_rng(5)
        refused = 0
        for seed in range(20):
            m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=seed)
            red = reduction.reduce(m)
            # polynomials in the loops preserve eps^(k-1) M; random maps
            # mostly do not
            f = [(rng.integers(0, 3) * la.identity(d) + rng.integers(0, 3) * e
                  if seed % 2 else rng.integers(0, 3, size=(d, d)))
                 for d, e in zip(m.dims, m.eps)]
            want = _raised_internal(reference_induced, red, red, f)
            got = _raised_internal(red.induced, red, f)
            assert got == want
            refused += want
        assert 0 < refused < 20


def _raised_internal(fn, *args) -> bool:
    """Whether fn(*args) raises InternalCheckError 'induced ...'."""
    try:
        fn(*args)
    except InternalCheckError as exc:
        assert "induced" in str(exc)
        return True
    return False
