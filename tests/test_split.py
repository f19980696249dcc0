"""The split of a module along invariant subspaces (the block pass
`hmod._split_blocks`, its block rule `hmod._blocks` and the restriction
`hmod._restrict`) against the constructions it replaces, kept as oracles
in conftest: the submodule and the quotient of `sub_quotient`, `quotient`,
and the tensor modules of a flag against the two chains of its tangent
Hom."""

import dataclasses
import itertools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanquiver import exactlinalg as la
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
    make_datum,
    reference_flag_tensor_modules,
    reference_quotient,
    reference_sub_quotient,
)
from reference_linalg import quotient_map

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
            and a.subspaces == b.subspaces)


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
    """Sub and quotient modules byte-identical to the oracles, with the
    same subspaces, quotients at the levels k, k - 1 and 1; every sub
    module valid; every tuple the oracles reject raises the same
    class."""
    accepted = rejected = 0
    for name in DATA:
        datum = request.getfixturevalue(name)
        rng = np.random.default_rng(1)
        for k, p, r in MODULES:
            m = hmod.random_locally_free(datum, k, p, r, seed=(k, p))
            for u in _scan(m, rng, 12):
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
                hmod.validate_module(got.sub)
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
    """The relation list that tangent_dimension hands to the Hom solve
    equals the relations of the tensor modules assembled from coordinates
    and induced maps, map for map: labels, vertex indices, byte-identical
    matrices (slot maps and connectors) and order, with their dims and
    prime."""
    solved = []
    original = homext._hom_kernel

    def recorded(relations, dims_m, dims_n, p):
        solved.append((relations, dims_m, dims_n, p))
        return original(relations, dims_m, dims_n, p)

    monkeypatch.setattr(homext, "_hom_kernel", recorded)
    flags = 0
    for m in _flag_modules(request.getfixturevalue(name)):
        for seq in SEQS:
            for flag in flagvar.iter_flags(m, seq):
                del solved[:]
                flagvar.tangent_dimension(m, flag)
                [(mine, dims_m, dims_n, p)] = solved
                x, y = reference_flag_tensor_modules(m, flag)
                assert (p, dims_m, dims_n) == (x.p, x.dims, y.dims)
                theirs = homext._relations(x, y)
                assert len(mine) == len(theirs)
                for (label, a, b, *ends), (other, c, d, *want_ends) in zip(
                        mine, theirs):
                    assert (label, ends) == (other, want_ends)
                    assert _same(a, c) and _same(b, d)
                flags += 1
    assert flags >= 60


class TestChecks:
    def test_other_prime_or_ambient_rejected(self, a2):
        m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)
        other_prime = [Subspace.zero(d, 2) for d in m.dims]
        wide = [Subspace.zero(d + 1, 3) for d in m.dims]
        short = [Subspace.zero(m.dims[0], 3)]
        for subs in (other_prime, wide, short):
            for build in (hmod.quotient, hmod.sub_quotient):
                with pytest.raises(ShapeMismatch):
                    build(m, subs)

    def test_quotient_maps_only_for_quotients(self, a2):
        """No split builds quotient maps, not even for quotients: a
        Quotient record is its module and the subspaces it was cut along,
        whose quotient coordinates give its projections."""
        m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)
        u = next(flagvar.iter_locally_free_submodules(m, (1, 1)))
        assert [f.name for f in dataclasses.fields(hmod.Quotient)] == [
            "module", "subspaces"]
        assert not hasattr(la, "quotient_map")
        for q in (hmod.quotient(m, u), hmod.sub_quotient(m, u).quotient):
            assert q.subspaces == tuple(u)
            assert q.module.dims == tuple(
                v.ambient - v.dim for v in q.subspaces)

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
        quotients, q_big @ s_small of la.quotient_map; from a larger
        subspace to a smaller one it raises."""
        m = hmod.random_locally_free(a2, 2, 3, (2, 1), seed=3)
        flag = next(flagvar.iter_flags(m, ((1, 0), (0, 1), (1, 0))))
        small, big = flag.layers
        for i, d in enumerate(m.dims):
            incl, proj = hmod._blocks("id", np.eye(d, dtype=np.int64),
                                      small[i], big[i])
            q_big, _ = quotient_map(d, big[i])
            _, s_small = quotient_map(d, small[i])
            assert _same(small[i].basis.T, (big[i].basis.T @ incl) % 3)
            assert _same(proj, (q_big @ s_small) % 3)
        assert big[1].dim > small[1].dim
        with pytest.raises(NotInvariant):
            hmod._blocks("id", np.eye(m.dims[1], dtype=np.int64),
                         big[1], small[1])


# A2, B2 both ways and Kronecker
BLOCK_DATA = [([[2, -1], [-1, 2]], [1, 1], [(0, 1)]),
              ([[2, -1], [-2, 2]], [2, 1], [(0, 1)]),
              ([[2, -1], [-2, 2]], [2, 1], [(1, 0)]),
              ([[2, -2], [-2, 2]], [1, 1], [(0, 1)])]


@st.composite
def block_cases(draw):
    """(x, U_j, U_i): x: M_j -> M_i a structure map of a random module
    (k <= 3, p in {2, 3, 5}) or a random matrix of its shape, U_j random
    and non-zero, and U_i random, or spanned by x U_j and random vectors
    (then x maps U_j into U_i)."""
    datum = make_datum(*draw(st.sampled_from(BLOCK_DATA)))
    k = draw(st.integers(1, 3))
    p = draw(st.sampled_from([2, 3, 5]))
    rank = draw(st.tuples(st.integers(1, 2), st.integers(1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    m = hmod.random_locally_free(datum, k, p, rank, seed=rng)
    _, x, i, j = draw(st.sampled_from(m.maps_with_labels()))
    if draw(st.booleans()):
        x = rng.integers(0, p, size=x.shape)

    def span(d, fewest, most, *fixed):
        rows = rng.integers(0, p, size=(draw(st.integers(fewest, most)), d))
        return Subspace.from_rows(np.concatenate([*fixed, rows]), d, p)

    u_j = span(m.dims[j], 1, m.dims[j])
    invariant = draw(st.booleans())
    u_i = span(m.dims[i], 0, m.dims[i] // 2,
               *([(u_j.basis @ x.T) % p] if invariant else []))
    return x, u_j, u_i


@settings(max_examples=300, deadline=None)
@given(block_cases())
def test_blocks_match_quotient_maps(case):
    """The blocks of x between U_j and U_i are the coordinates of x U_j in
    U_i and q_i x s_j of la.quotient_map, read-only; NotInvariant is raised
    exactly when q_i x B_j^T is not zero, that is when x U_j is not in
    U_i."""
    x, u_j, u_i = case
    p = u_i.p
    q_i, _ = quotient_map(x.shape[0], u_i)
    _, s_j = quotient_map(x.shape[1], u_j)
    img = (x @ u_j.basis.T) % p
    invariant = not ((q_i @ img) % p).any()
    assert invariant == u_i.contains_rows(img.T)
    if not invariant:
        with pytest.raises(NotInvariant):
            hmod._blocks("x", x, u_j, u_i)
        return
    sub, quot = hmod._blocks("x", x, u_j, u_i)
    assert _same((u_i.basis.T @ sub) % p, img)
    assert not sub.flags.writeable
    assert _same(quot, ((q_i @ x) % p @ s_j) % p)
    assert not quot.flags.writeable


def test_flags_and_tangents_build_no_quotient_map(a2, b2):
    """The flag check, the tangent Hom, the reduction of flags and the
    fibers read their blocks off the layer subspaces
    (`Subspace.quotient_coords`): the library has no quotient map to build,
    and they run on flags of both data."""
    src = pathlib.Path(hmod.__file__).parent
    assert not [path.name for path in src.glob("*.py")
                if "quotient_map" in path.read_text()]
    flags = 0
    for datum in (a2, b2):
        m = hmod.random_locally_free(datum, 2, 3, (2, 1), seed=3)
        for seq in (((1, 0), (1, 1)), ((1, 0), (0, 1), (1, 0))):
            for flag in flagvar.iter_flags(m, seq):
                flagvar.tangent_dimension(m, flag)
                base = flagvar.reduce_flag(m, flag)
                assert not flagvar.fiber_of_reduction(m, base).empty
                flags += 1
    assert flags >= 10


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
        flags = list(flagvar.iter_flags(m, seq))
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

