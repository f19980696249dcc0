"""The one restriction builder `hmod._restrict` on the Krull-Schmidt pieces
of `gendecomp.krull_schmidt`: every piece equals the validated oracle
`reference_submodule` byte for byte and is a valid module, and a
decomposition builds and validates no module."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cartanquiver import gendecomp, hmod
from cartanquiver.exactlinalg import Subspace

from conftest import make_datum, reference_submodule, scrambled

DATA = {
    "a2": make_datum([[2, -1], [-1, 2]], [1, 1], [(0, 1)]),
    "b2": make_datum([[2, -1], [-2, 2]], [2, 1], [(0, 1)]),
    "b2_rev": make_datum([[2, -1], [-2, 2]], [2, 1], [(1, 0)]),
    "g2": make_datum([[2, -3], [-1, 2]], [1, 3], [(0, 1)]),
    "kronecker": make_datum([[2, -2], [-2, 2]], [1, 1], [(0, 1)]),
}


def _same_module(a, b):
    """Byte equality of the dims and of every loop and arrow matrix."""
    if (a.datum, a.k, a.p, a.dims) != (b.datum, b.k, b.p, b.dims):
        return False
    mine, theirs = a.maps_with_labels(), b.maps_with_labels()
    return len(mine) == len(theirs) and all(
        label == other and x.dtype == y.dtype and x.shape == y.shape
        and x.tobytes() == y.tobytes()
        for (label, x, *_), (other, y, *_) in zip(mine, theirs))


@st.composite
def decomposition_cases(draw):
    """(module, number of non-zero summands): a random module of one rank
    (k <= 3, p in {2, 3, 5}), or a direct sum of up to three random ones,
    so that splits happen; sometimes conjugated out of standard form.
    Ranks stay small, so most End searches are exhaustive."""
    datum = DATA[draw(st.sampled_from(sorted(DATA)))]
    k = draw(st.integers(1, 3))
    p = draw(st.sampled_from([2, 3, 5]))
    ranks = draw(st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1)).filter(any),
        min_size=1, max_size=2 if datum.d[1] * k > 3 else 3))
    seed = draw(st.integers(0, 2 ** 16))
    pieces = [hmod.random_locally_free(datum, k, p, r, seed=(seed, t))
              for t, r in enumerate(ranks)]
    m = functools.reduce(hmod.direct_sum, pieces)
    if draw(st.booleans()):
        m = scrambled(m, np.random.default_rng(seed))
    return m, len(pieces)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(decomposition_cases())
def test_pieces_match_reference_submodule(case):
    """Every piece krull_schmidt builds is the restriction to RREF bases
    with their pivots, byte-identical to `reference_submodule` of the
    module it was split from along those subspaces, and valid; a direct
    sum of s summands whose decomposition is exhaustive splits at least
    s - 1 times."""
    m, summands = case
    built = []
    original = hmod._restrict

    def recorded(cur, bases, pivots):
        piece = original(cur, bases, pivots)
        subs = [Subspace.from_rows(b, d, cur.p)
                for b, d in zip(bases, cur.dims)]
        for u, b, pv in zip(subs, bases, pivots):
            assert np.array_equal(u.basis, b) and u.pivots == tuple(pv)
        want, _ = reference_submodule(cur, subs)
        assert _same_module(piece, want)
        hmod.validate_module(piece)
        built.append(piece)
        return piece

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hmod, "_restrict", recorded)
        result = gendecomp.krull_schmidt(m, seed=0)
    assert len(built) % 2 == 0
    if result.certainty == gendecomp.EXHAUSTIVE:
        assert result.summand_count() >= summands
        assert len(built) >= 2 * (summands - 1)


@pytest.mark.parametrize("name", sorted(DATA))
def test_decomposition_builds_no_module(name, monkeypatch):
    """krull_schmidt without its final check splits a decomposable module
    into its pieces with no `make_module` and no `validate_module` call:
    the pieces are valid by construction."""
    datum = DATA[name]
    m = hmod.direct_sum(hmod.random_locally_free(datum, 2, 3, (1, 1), seed=1),
                        hmod.random_locally_free(datum, 2, 3, (1, 0), seed=2))
    calls = []

    def counted(attr, original):
        def call(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)
        return call

    for attr in ("make_module", "validate_module"):
        monkeypatch.setattr(hmod, attr, counted(attr, getattr(hmod, attr)))
    result = gendecomp.krull_schmidt(m)
    assert result.summand_count() >= 2
    assert calls == []
