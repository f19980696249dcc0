"""`homext.ext1_dim` (one Hom solve and the Euler form) against an
oracle that builds the cocycles and coboundaries of the extensions
explicitly (`reference_ext`), on random pairs of locally free modules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanquiver import hmod, homext

from conftest import make_datum
import reference_ext

DATA = {
    "A2": ([[2, -1], [-1, 2]], [1, 1], [(0, 1)]),
    "B2": ([[2, -1], [-2, 2]], [2, 1], [(0, 1)]),
    "B2 reversed": ([[2, -1], [-2, 2]], [2, 1], [(1, 0)]),
    "G2": ([[2, -1], [-3, 2]], [3, 1], [(0, 1)]),
    "Kronecker": ([[2, -2], [-2, 2]], [1, 1], [(0, 1)]),
}
DATUMS = {name: make_datum(*args) for name, args in DATA.items()}


def test_oracle_on_known_pairs():
    # E_1 and E_2 over A2 at k = 1 with the arrow 2 -> 1: Ext^1(E_2, E_1)
    # is one extension, the other way none; a module is rigid only when
    # its Ext^1 with itself vanishes
    a2 = DATUMS["A2"]
    e1 = hmod.free_module(a2, 1, 3, (1, 0))
    e2 = hmod.free_module(a2, 1, 3, (0, 1))
    assert reference_ext.ext1_dim(e2, e1) == 1
    assert reference_ext.ext1_dim(e1, e2) == 0
    both = hmod.free_module(a2, 1, 3, (1, 1))
    assert reference_ext.ext1_dim(both, both) == 1


def sparse_module(datum, k, p, r, seed, keep):
    """A random locally free module whose structure entries are each kept
    with probability `keep` and zero otherwise: sparse entries make most
    pairs non-rigid, where uniform ones are mostly rigid."""
    s = hmod.random_structure(datum, k, p, r, seed)
    rng = np.random.default_rng(seed)
    mats = {key: a * (rng.random(a.shape) < keep)
            for key, a in s.mats.items()}
    return hmod.from_structure_matrices(
        hmod.structure_from_arrays(datum, k, p, r, mats))


RANKS = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(DATUMS)), k=st.integers(1, 2),
       p=st.sampled_from((2, 3, 5)), r=RANKS, s=RANKS,
       keep=st.sampled_from((0.0, 0.1, 0.25)),
       seeds=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)))
def test_ext1_matches_cocycle_oracle(name, k, p, r, s, keep, seeds):
    # dim Ext^1 = dim Hom - <r, s> from the library, dim Z^1 - rank B^1
    # from the oracle; at the G2 vertex of c = 3 the ranks stay 1 at k = 2
    datum = DATUMS[name]
    if name == "G2" and k == 2:
        r, s = (min(r[0], 1), r[1]), (min(s[0], 1), s[1])
    m = sparse_module(datum, k, p, r, seeds[0], keep)
    n = sparse_module(datum, k, p, s, seeds[1], keep)
    assert homext.ext1_dim(m, n) == reference_ext.ext1_dim(m, n)
