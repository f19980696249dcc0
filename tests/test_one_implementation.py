"""Each object of the library has one implementation: the free module is
the module of the zero structure, eps^a is one power per vertex, the
quiver Grassmannian is the two-step case of the flag recursion, flags of
every length have one count, and the Euler form is the symmetrizer form
plus its arrow terms.  These tests pin that the special cases give what
the general functions give."""

import inspect

import numpy as np
import pytest

from cartanquiver import cartan
from cartanquiver import exactlinalg as la
from cartanquiver import flagvar, hmod, homext
from cartanquiver.cartan import RankVector

from conftest import scrambled


@pytest.mark.parametrize("name", ["a2", "b2"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("r", [(0, 0), (1, 0), (2, 1), (1, 3)])
def test_free_module_is_the_zero_structure(request, name, k, r):
    """E^r is the module of the zero structure matrices, and it equals the
    module built from standard Jordan loops and zero arrows, entry by
    entry."""
    datum = request.getfixturevalue(name)
    m = hmod.free_module(datum, k, 3, r)
    assert hmod.modules_equal(m, hmod.from_structure_matrices(
        hmod.structure_from_arrays(datum, k, 3, r, {})))
    loops = [hmod._standard_loop(k * c, x) for c, x in zip(datum.d, r)]
    assert hmod.modules_equal(m, hmod.make_module(datum, k, 3, loops, {}))
    assert m.standard_form and hmod.rank_vector(m) == RankVector(r)


def test_epsilon_power_is_one_matpow_per_vertex(b2, a2):
    """epsilon_blocks(m, a) is Eps_i^(a*c_i): the a-th power of
    epsilon_blocks(m), entry by entry, for every a from 0 to k, on a
    module in standard form and on one that is not."""
    rigid = homext.find_rigid(b2, 3, 3, (2, 1), seed=0).module
    other = scrambled(hmod.random_locally_free(a2, 2, 3, (2, 1), 4),
                      np.random.default_rng(4))
    for m in (rigid, other):
        base = hmod.epsilon_blocks(m)
        for a in range(m.k + 1):
            power = hmod.epsilon_blocks(m, a)
            assert len(power) == m.n
            for x, b in zip(power, base):
                assert x.dtype == np.int64
                assert np.array_equal(x, la.matpow(b, a, m.p))
        assert not any(x.any() for x in hmod.epsilon_blocks(m, m.k))


def _grassmannian_cases(datum):
    for k in (1, 2):
        for p in (2, 3):
            for r in ((1, 1), (2, 1), (1, 2), (2, 2)):
                m = hmod.random_locally_free(datum, k, p, r, (k, p, r))
                for e in np.ndindex(*(x + 1 for x in r)):
                    yield m, RankVector(e)


@pytest.mark.parametrize("name", ["a2", "b2", "kronecker"])
def test_grassmannian_is_the_two_step_flag_case(request, name):
    """The Grassmannian count of rank e is the point count of the flags
    (e, rank - e), and its stream is their bottom layers, in order (where
    the count is at most 400)."""
    datum = request.getfixturevalue(name)
    for m, e in _grassmannian_cases(datum):
        seq = (e, hmod.rank_vector(m) - e)
        count = flagvar.count_locally_free_submodules(m, e)
        assert count == flagvar.point_count(m, seq)
        if count <= 400:
            stream = list(flagvar.iter_locally_free_submodules(m, e))
            assert stream == [f.layers[0] for f in flagvar.iter_flags(m, seq)]
            assert len(stream) == count


def test_grassmannian_of_a_module_not_in_standard_form(a2):
    """The stream is mapped back by the change of basis of the standard
    form: the submodules of a scrambled module are the two-step flags of
    that module."""
    m = scrambled(hmod.random_locally_free(a2, 2, 3, (2, 1), 9),
                  np.random.default_rng(9))
    assert not m.standard_form
    for e in ((1, 0), (1, 1), (2, 0)):
        seq = (RankVector(e), hmod.rank_vector(m) - RankVector(e))
        stream = list(flagvar.iter_locally_free_submodules(m, e))
        assert stream == [f.layers[0] for f in flagvar.iter_flags(m, seq)]
        assert len(stream) == flagvar.count_locally_free_submodules(m, e)


def test_every_flag_count_is_one_count(a2, monkeypatch):
    """point_count and count_locally_free_submodules return
    `_count_charts` of the standard form, for two steps and for three;
    the recursions that enumerate take no count mode."""
    m = hmod.random_locally_free(a2, 2, 3, (2, 1), 5)
    seen = []

    def counted(mod, seq):
        seen.append(mod)
        return tuple(map(tuple, seq))

    monkeypatch.setattr(flagvar, "_count_charts", counted)
    three = ((1, 0), (0, 1), (1, 0))
    assert flagvar.point_count(m, three) == three
    assert flagvar.count_locally_free_submodules(m, (1, 1)) == (
        (1, 1), (1, 0))
    assert seen == [m, m] and m.standard_form
    for fn in (flagvar._layer_chains, flagvar._grassmannian):
        assert "count" not in inspect.signature(fn).parameters


def test_euler_form_is_the_symmetrizer_form_plus_arrow_terms(b2,
                                                            monkeypatch):
    """euler_form calls symmetrizer_form once for its diagonal terms and
    adds k*c_i*c_ij*a_j*b_i for each arrow: on B2 at k = 2,
    <(1,1),(1,1)> = 2*(2 + 1) + 2*2*(-1)."""
    calls = []
    original = cartan.symmetrizer_form

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cartan, "symmetrizer_form", counted)
    assert cartan.euler_form(b2, (1, 1), (1, 1), k=2) == 2
    assert len(calls) == 1
