import numpy as np
import pytest

from cartanquiver import cartan, hmod
from cartanquiver import exactlinalg as la


def make_datum(c, d, omega):
    return cartan.validate_orientation(cartan.validate_cartan(c, d), omega)


@pytest.fixture(scope="session")
def a2():
    """Minimal symmetrizer on the two-vertex single-edge matrix."""
    return make_datum([[2, -1], [-1, 2]], [1, 1], [(0, 1)])


@pytest.fixture(scope="session")
def b2():
    """Non-trivial minimal symmetrizer diag(2, 1)."""
    return make_datum([[2, -1], [-2, 2]], [2, 1], [(0, 1)])


@pytest.fixture(scope="session")
def kronecker():
    """Symmetric matrix with a double edge: two parallel arrows."""
    return make_datum([[2, -2], [-2, 2]], [1, 1], [(0, 1)])


@pytest.fixture(scope="session")
def b2_rev():
    """The (2,1)-symmetrizer edge oriented the other way: the oriented
    pair has twist degree f = 2, so structure entries carry real twists."""
    return make_datum([[2, -1], [-2, 2]], [2, 1], [(1, 0)])


@pytest.fixture(scope="session")
def g2():
    """Triple edge with symmetrizer diag(1, 3): twist degree 3."""
    return make_datum([[2, -3], [-1, 2]], [1, 3], [(0, 1)])


@pytest.fixture(scope="session")
def no_arrows():
    """Two isolated vertices (no off-diagonal entries)."""
    return cartan.validate_orientation(
        cartan.validate_cartan([[2, 0], [0, 2]], [1, 1]), [])


@pytest.fixture(scope="session")
def one_vertex():
    """A single vertex: modules are truncated-polynomial columns."""
    return cartan.validate_orientation(
        cartan.validate_cartan([[2]], [1]), [])


@pytest.fixture(scope="session")
def a3():
    """Linear three-vertex A-type datum."""
    c = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    return make_datum(c, [1, 1, 1], [(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def b3():
    """Three-vertex chain with the mixed symmetrizer diag(2, 2, 1)."""
    c = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    return make_datum(c, [2, 2, 1], [(0, 1), (1, 2)])


def golden_module(datum, k, p):
    """Rank (1, 1) module whose arrow acts by the loop: the standard
    example of a non-zero map dying under reduction (k = 2)."""
    coeffs = np.zeros((1, 1, k), dtype=np.int64)
    if k >= 2:
        coeffs[0, 0, 1] = 1
    else:
        coeffs[0, 0, 0] = 0
    s = hmod.structure_from_arrays(datum, k, p, (1, 1), {(0, 1): coeffs})
    return hmod.from_structure_matrices(s)


def n_module(datum, k, p):
    """Rank (2, 2) module with structure matrix [[0, 1], [0, 0]]: splits
    into three pairwise non-isomorphic indecomposables and is not rigid."""
    s = hmod.structure_from_arrays(datum, k, p, (2, 2),
                                   {(0, 1): np.array([[0, 1], [0, 0]])})
    return hmod.from_structure_matrices(s)


def line_submodule(module, vertex, a_coeffs):
    """span((1, a)) inside a free rank-2 column at the vertex; a is given
    by its coefficient list."""
    order = module.loop_order(vertex)
    assert module.standard_form and module.dims[vertex] == 2 * order
    ring = np.zeros((2, 1, order), dtype=np.int64)
    ring[0, 0, 0] = 1
    a_coeffs = list(a_coeffs)
    ring[1, 0, :len(a_coeffs)] = a_coeffs
    columns = hmod.ring_to_matrix(ring % module.p, order, order)
    return la.Subspace.from_rows(columns.T, 2 * order, module.p)


SMALL_RANKS = [(0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2),
               (3, 0), (0, 3)]
