"""Each flag object is checked once: a flag is a value (its brseq and
layers are tuples, its subspaces hold read-only bases), so it keeps the
read-only blocks of its one check (`flagvar._flag_blocks`), and its
tangent space, its reduction and the fiber over it reuse them; a check
that raises keeps nothing, and a flag of another module is checked
against that module."""

import itertools

import numpy as np
import pytest

from cartanquiver import flagvar, hmod, homext, reduction
from cartanquiver.errors import (
    NotInvariant,
    ShapeMismatch,
    ValidationError,
)
from cartanquiver.exactlinalg import Subspace

from conftest import reference_flag_check, reference_flag_tensor_modules

# subquotient ranks of flags of a rank-(2, 1) module
SEQS = [((1, 0), (1, 1)), ((1, 1), (1, 0)), ((0, 1), (2, 0)),
        ((1, 0), (0, 1), (1, 0)), ((0, 1), (1, 0), (1, 0)),
        ((1, 0), (1, 0), (0, 1))]


@pytest.fixture
def checks(monkeypatch):
    """The (module, layers) of every run of the flag check."""
    calls = []
    original = flagvar._flag_blocks

    def counted(m, brseq, layers):
        calls.append((m, layers))
        return original(m, brseq, layers)

    monkeypatch.setattr(flagvar, "_flag_blocks", counted)
    return calls


def _raised(fn, *args):
    """The class of the ValidationError fn(*args) raises, or None."""
    try:
        fn(*args)
    except ValidationError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("name", ["a2", "b2"])
def test_iter_flags_and_tangent_check_each_flag_once(request, name, checks):
    datum = request.getfixturevalue(name)
    flags = 0
    for k, p in ((1, 2), (2, 3)):
        m = hmod.random_locally_free(datum, k, p, (2, 1), seed=(k, p))
        for seq in SEQS:
            for flag in flagvar.iter_flags(m, seq):
                assert checks[-1] == (m, flag.layers)
                before = len(checks)
                flagvar.tangent_dimension(m, flag)
                flagvar.tangent_dimension(m, flag)
                flag.validate()
                assert len(checks) == before
                flags += 1
    assert flags >= 40 and len(checks) == flags


@pytest.mark.parametrize("name", ["a2", "b2"])
def test_fiber_adds_no_check_of_an_iter_flags_base(request, name, checks):
    """The fiber checks its shadow, particular and `back` flags; a base
    from iter_flags is not checked again, a fresh copy of it is."""
    datum = request.getfixturevalue(name)
    m = hmod.random_locally_free(datum, 2, 3, (2, 1), seed=4)
    mbar = reduction.reduce(m).module
    bases = 0
    for seq in SEQS:
        for base in itertools.islice(flagvar.iter_flags(mbar, seq), 4):
            del checks[:]
            fib = flagvar.fiber_of_reduction(m, base)
            assert checks and all(layers is not base.layers
                                  for _, layers in checks)
            fresh = flagvar.FlagOfSubmodules(mbar, base.brseq, base.layers)
            del checks[:]
            again = flagvar.fiber_of_reduction(m, fresh)
            assert [layers is base.layers for _, layers in checks].count(
                True) == 1
            assert (again.empty, again.dimension) == (fib.empty,
                                                      fib.dimension)
            bases += 1
    assert bases >= 10


def test_kept_blocks_are_read_only(a2):
    """The sides of each layer's block pass are the layer's subspaces, and
    every kept block is read-only."""
    m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)
    flag = next(flagvar.iter_flags(m, SEQS[3]))
    splits, connectors = flag._check()
    assert flag._check() is flag._kept
    for (sides, _), layer in zip(splits, flag.layers, strict=True):
        assert len(sides) == len(layer)
        assert all(side is u for side, u in zip(sides, layer))
    arrays = [a for sides, blocks in splits for b in blocks for a in b]
    arrays += [a for blocks in connectors for b in blocks for a in b]
    assert arrays and not any(a.flags.writeable for a in arrays)


def test_writes_to_the_callers_arrays_do_not_reach_a_flag(a2):
    """A flag built on writable bases holds read-only copies: writing into
    the caller's arrays afterwards changes neither its bases, their hashes
    nor its tangent dimension."""
    m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)
    flag = next(flagvar.iter_flags(m, SEQS[0]))
    arrays = [[u.basis.copy() for u in layer] for layer in flag.layers]
    built = flagvar.FlagOfSubmodules(m, flag.brseq, tuple(
        tuple(Subspace.from_rows(b, u.ambient, u.p)
              for u, b in zip(layer, row))
        for layer, row in zip(flag.layers, arrays)))
    subs = [u for layer in built.layers for u in layer]
    hashes = [hash(u) for u in subs]
    kept = set(subs)
    want = flagvar.tangent_dimension(m, built)
    for row in arrays:
        for b in row:
            b[:] = 0
    assert built.layers == flag.layers
    assert [hash(u) for u in subs] == hashes and all(u in kept for u in subs)
    assert not any(u.basis.flags.writeable for u in subs)
    assert flagvar.tangent_dimension(m, built) == want
    built.validate()


def test_flag_from_lists_stores_tuples_and_is_checked_once(a2, checks):
    """Layers and a brseq given as lists are stored as tuples, so later
    writes to the caller's lists do not reach the flag, and it is checked
    once."""
    m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)
    flag = next(flagvar.iter_flags(m, SEQS[0]))
    seq = [list(r) for r in flag.brseq]
    layers = [list(layer) for layer in flag.layers]
    listed = flagvar.FlagOfSubmodules(m, seq, layers)
    assert type(listed.brseq) is tuple and type(listed.layers) is tuple
    assert all(type(r) is tuple for r in listed.brseq)
    assert all(type(layer) is tuple for layer in listed.layers)
    assert listed.brseq == flag.brseq and listed.layers == flag.layers
    seq[0] = [2, 1]
    layers[0] = [Subspace.zero(d, 3) for d in m.dims]
    del checks[:]
    listed.validate()
    assert flagvar.tangent_dimension(m, listed) == \
        flagvar.tangent_dimension(m, flag)
    flagvar.reduce_flag(m, listed)     # also checks the reduced flag
    assert [mod for mod, layers in checks if layers is listed.layers] == [m]


def test_failed_check_raises_on_every_call(a2, checks):
    m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)
    zero = tuple(Subspace.zero(d, 3) for d in m.dims)
    flag = flagvar.FlagOfSubmodules(m, SEQS[3], (zero, zero))
    for _ in range(3):
        with pytest.raises(ShapeMismatch):
            flag.validate()
        with pytest.raises(ShapeMismatch):
            flagvar.tangent_dimension(m, flag)
        with pytest.raises(ShapeMismatch):
            flagvar.reduce_flag(m, flag)
    # nothing kept: the cached check was never stored
    assert len(checks) == 9 and "_kept" not in vars(flag)


@pytest.mark.parametrize("name", ["a2", "b2", "kronecker"])
def test_other_module_is_checked_against_it(request, name, checks):
    """A checked flag of `other` passed with mbar: both entry points run
    the check against mbar and raise the class the oracle raises; with a
    module equal to its own (another object) it gives the same tangent
    dimension."""
    datum = request.getfixturevalue(name)
    refused = 0
    for p in (2, 3):
        mbar = reduction.reduce(
            hmod.random_locally_free(datum, 3, p, (2, 1), seed=p)).module
        other = hmod.random_locally_free(datum, 2, p, (2, 1), seed=p + 10)
        twin = hmod.make_module(other.datum, other.k, other.p, other.eps,
                                dict(other.arrows))
        for seq in SEQS:
            for flag in flagvar.iter_flags(other, seq):
                assert flag._kept is not None
                want = _raised(reference_flag_check, flagvar.FlagOfSubmodules(
                    mbar, seq, flag.layers))
                del checks[:]
                got = {_raised(flagvar.tangent_dimension, mbar, flag),
                       _raised(flagvar.reduce_flag, mbar, flag)}
                assert checks[0][0] is mbar and checks[0][1] is flag.layers
                # where the oracle raises a plain ValidationError for a map
                # that does not preserve a layer, the block pass raises its
                # subclass NotInvariant
                assert got == {want} or (want is ValidationError
                                         and got == {NotInvariant})
                refused += want is not None
                del checks[:]
                assert flagvar.tangent_dimension(twin, flag) == \
                    flagvar.tangent_dimension(other, flag)
                assert [m for m, _ in checks] == [twin]
    assert refused >= 2


@pytest.mark.parametrize("name", ["a2", "b2", "b2_rev", "kronecker", "g2"])
def test_tangent_from_kept_blocks_matches_oracle(request, name):
    """The flags of tests/test_flag_check.py, checked by iter_flags: the
    tangent dimension from the kept blocks equals the Hom between the
    oracle tensor modules."""
    datum = request.getfixturevalue(name)
    flags = 0
    for k, p in itertools.product((1, 2, 3), (2, 3)):
        m = hmod.random_locally_free(datum, k, p, (2, 1), seed=(k, p))
        for seq in SEQS:
            for flag in flagvar.iter_flags(m, seq):
                assert flag._kept is not None
                want = flagvar.hom_tensor(
                    *reference_flag_tensor_modules(m, flag)).dim
                assert flagvar.tangent_dimension(m, flag) == want
                flags += 1
    assert flags >= 100


@pytest.mark.parametrize("name", ["a2", "b2"])
def test_tangent_builds_no_module(request, name, monkeypatch):
    """On a checked flag, tangent_dimension reads both chains off the kept
    blocks: no split, no module built or validated, no tensor module."""
    datum = request.getfixturevalue(name)
    m = hmod.random_locally_free(datum, 2, 3, (2, 1), seed=4)
    flags = [flag for seq in SEQS for flag in flagvar.iter_flags(m, seq)]
    calls = []

    def counted(attr, original):
        def call(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)
        return call

    for owner, attr in ((hmod, "make_module"), (hmod, "quotient"),
                        (hmod, "sub_quotient"), (hmod, "_split_blocks"),
                        (hmod, "validate_module"),
                        (flagvar.TensorModule, "__post_init__")):
        monkeypatch.setattr(owner, attr,
                            counted(attr, getattr(owner, attr)))
    dims = [flagvar.tangent_dimension(m, flag) for flag in flags]
    assert len(flags) >= 20 and any(dims)
    assert calls == []


class TestFlagAt:
    """flag_at takes integer coordinates only."""

    @pytest.fixture(scope="class")
    def fiber(self, b2):
        m = homext.find_rigid(b2, 2, 3, (2, 1), trials=50, seed=0).module
        mbar = reduction.reduce(m).module
        base = next(flagvar.iter_flags(mbar, ((1, 0), (1, 1))))
        fib = flagvar.fiber_of_reduction(m, base)
        assert fib.dimension == 2
        return fib

    def test_non_integers_rejected(self, fiber):
        for coeffs in ([1.7, 1.7], ["x", "x"], [1.0, 1.0], [2 ** 70, 1]):
            with pytest.raises(ValidationError, match="integer array"):
                fiber.flag_at(coeffs)

    def test_integers_as_before(self, fiber):
        p = fiber.base.module.p
        for coeffs in itertools.product(range(-1, p + 1), repeat=2):
            got = fiber.flag_at(list(coeffs))
            same = fiber.flag_at(np.asarray(coeffs, dtype=np.int64) % p)
            assert got.layers == same.layers
        assert fiber.flag_at([0, 0]).layers == fiber.particular.layers
        with pytest.raises(ShapeMismatch):
            fiber.flag_at([1, 1, 1])
