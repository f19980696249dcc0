import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanquiver import exactlinalg as la
from cartanquiver.errors import (
    DimensionMismatch,
    ModulusTooLarge,
    NonIntegerCoefficient,
    NotPrime,
    OverdeterminedMismatch,
    ValidationError,
)

from conftest import contains, coordinates_rows
from reference_linalg import (
    kernel_from_rref_loop,
    left_product_matrix,
    quotient_map,
    right_product_matrix,
    rref_stack,
)


def test_check_prime():
    assert la.check_prime(2) == 2
    assert la.check_prime(13) == 13
    with pytest.raises(NotPrime):
        la.check_prime(6)
    with pytest.raises(NotPrime):
        la.check_prime(1)


def test_check_prime_modulus_bound():
    # the largest prime with (p-1)^2 < 2^31, and the next prime above it
    assert la.check_prime(la.MAX_PRIME) == la.MAX_PRIME == 46337
    assert (la.MAX_PRIME - 1) ** 2 * 2 ** 32 < 2 ** 63
    for p in (46349, 2147483647, 4294967311):
        with pytest.raises(ModulusTooLarge):
            la.check_prime(p)


@pytest.mark.parametrize("p,error", [(4, NotPrime),
                                     (46349, ModulusTooLarge)])
@pytest.mark.parametrize("call", [
    lambda p: la.rref(np.array([[2, 1]]), p),
    lambda p: la.solve(np.array([[2]]), np.array([1]), p),
    lambda p: la.rank(np.array([[2, 1]]), p),
    lambda p: la.Subspace.from_rows([[2, 1]], 2, p),
], ids=["rref", "solve", "rank", "from_rows"])
def test_eliminations_refuse_a_bad_modulus(call, p, error):
    """The elimination reads its modulus through check_prime: mod 4 it
    returned a rank-1 "RREF" [[0, 0]] of [[2, 1]], and solve raised
    InternalCheckError."""
    with pytest.raises(error):
        call(p)


def test_rref_identity_and_zero():
    eye = la.identity(3)
    r, rank, piv = la.rref(eye, 5)
    assert np.array_equal(r, eye) and rank == 3 and piv == (0, 1, 2)
    z = la.zeros(2, 4)
    r, rank, piv = la.rref(z, 3)
    assert not r.any() and rank == 0 and piv == ()


def test_rref_mod2_collapse():
    r, rank, piv = la.rref(np.array([[1, 1], [1, 1]]), 2)
    assert np.array_equal(r, [[1, 1], [0, 0]])
    assert rank == 1


def test_rref_idempotent():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        for _ in range(20):
            a = rng.integers(0, p, size=(4, 6))
            r1, rank1, piv1 = la.rref(a, p)
            r2, rank2, piv2 = la.rref(r1, p)
            assert np.array_equal(r1, r2) and rank1 == rank2 and piv1 == piv2


@st.composite
def matrix_stacks(draw):
    """(p, stack): a few matrices over F_p, biased to zeros, ones and -1,
    with a dependent last row in some draws."""
    p = draw(st.sampled_from([2, 3, 7, 46337]))
    n = draw(st.integers(0, 5))
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.just(1), st.just(p - 1),
                      st.integers(0, p - 1))
    flat = draw(st.lists(entry, min_size=n * rows * cols,
                         max_size=n * rows * cols))
    stack = np.array(flat, dtype=np.int64).reshape(n, rows, cols)
    if rows > 1 and draw(st.booleans()):
        c = draw(st.integers(1, p - 1))
        stack[:, -1] = (c * stack[:, 0] + stack[:, -2]) % p
    return p, stack


@settings(max_examples=300, deadline=None)
@given(matrix_stacks())
def test_rref_stack_matches_rref(case):
    p, stack = case
    before = stack.copy()
    reduced, ranks, pivots = rref_stack(stack, p)
    assert np.array_equal(stack, before)
    assert reduced.shape == stack.shape
    assert pivots.shape == stack.shape[:2]
    for b in range(stack.shape[0]):
        r, rank, piv = la.rref(stack[b], p)
        assert np.array_equal(reduced[b], r)
        assert ranks[b] == rank
        assert tuple(pivots[b, :rank].tolist()) == piv
        assert (pivots[b, rank:] == -1).all()


def test_rref_stack_exact_at_largest_prime():
    p = la.MAX_PRIME
    stack = np.full((3, 4, 5), p - 1, dtype=np.int64)
    stack[1] = np.arange(20).reshape(4, 5) * (p // 7)
    stack[2, :, :4] = (p - 1) * la.identity(4)
    reduced, ranks, _ = rref_stack(stack, p)
    for b in range(3):
        r, rank, _ = la.rref(stack[b], p)
        assert np.array_equal(reduced[b], r) and ranks[b] == rank
    assert list(ranks) == [1, 2, 4]


@st.composite
def elimination_cases(draw):
    """(p, a, b): a matrix over F_p from 0 x n and n x 0 up to 14 x 14,
    entries biased to 0, 1 and p - 1 (with a few outside 0..p-1), its
    later rows combinations of its first ones in some draws, and a
    right-hand side."""
    p = draw(st.sampled_from([2, 3, 7, 46337]))
    rows = draw(st.integers(0, 14))
    cols = draw(st.integers(0, 14))
    entry = st.one_of(st.just(0), st.just(1), st.just(p - 1),
                      st.integers(0, p - 1), st.integers(-p, 2 * p))
    a = np.array(draw(st.lists(entry, min_size=rows * cols,
                               max_size=rows * cols)),
                 dtype=np.int64).reshape(rows, cols)
    if rows > 1 and draw(st.booleans()):
        keep = draw(st.integers(1, rows - 1))
        mix = np.array(draw(st.lists(entry, min_size=(rows - keep) * keep,
                                     max_size=(rows - keep) * keep)),
                       dtype=np.int64).reshape(rows - keep, keep)
        a[keep:] = (mix @ (a[:keep] % p)) % p
    b = np.array(draw(st.lists(entry, min_size=rows, max_size=rows)),
                 dtype=np.int64)
    return p, a, b


def _assert_rref(r, rank, pivots, p):
    """r is in reduced row echelon form over F_p with the given rank and
    pivot columns."""
    assert ((r >= 0) & (r < p)).all()
    assert len(pivots) == rank and list(pivots) == sorted(set(pivots))
    assert not r[rank:].any()
    for row, c in enumerate(pivots):
        assert not r[row, :c].any() and r[row, c] == 1
        assert np.count_nonzero(r[:, c]) == 1


def _row_space(a, p):
    """The row space of a over F_p as a set of base-p codes, by
    enumerating every combination of its rows."""
    span = (_all_vectors(p, a.shape[0]) @ a) % p
    return set((span @ p ** np.arange(a.shape[1], dtype=np.int64)).tolist())


def _assert_eliminations(a, b, p):
    """rref of a equals the RREF that rref_stack computes for the stack
    [a], and rank, inv, solve (for b and for a consistent right-hand
    side) and kernel_basis_and_support agree with it."""
    r, rank, pivots = la.rref(a, p)
    assert r.dtype == np.int64 and r.shape == a.shape
    # a fresh array that owns its memory: from_rows freezes it and keeps
    # slices of it
    assert r.base is None and r.flags.writeable
    _assert_rref(r, rank, pivots, p)
    stacked, ranks, stack_pivots = rref_stack(a[None], p)
    assert np.array_equal(r, stacked[0]) and rank == ranks[0]
    assert pivots == tuple(stack_pivots[0, :rank].tolist())
    assert la.rank(a, p) == rank
    rows, cols = a.shape
    if rows == cols:
        if rank == rows:
            assert np.array_equal((a @ la.inv(a, p)) % p, la.identity(rows))
        else:
            with pytest.raises(DimensionMismatch):
                la.inv(a, p)
    basis, support = la.kernel_basis_and_support(a, p)
    assert basis.shape == (cols - rank, cols)
    assert not ((a @ basis.T) % p).any()
    assert set(support).isdisjoint(pivots) and len(support) == cols - rank
    consistent = (a @ np.arange(cols, dtype=np.int64)) % p
    for rhs in (b, consistent):
        solved = la.solve(a, rhs, p)
        if solved is None:
            assert rhs is b
            assert la.rank(np.column_stack([a, b]), p) == rank + 1
            continue
        x, kernel = solved
        assert not ((a @ x - rhs) % p).any()
        assert np.array_equal(kernel, basis)


@settings(max_examples=300, deadline=None)
@given(elimination_cases())
def test_rref_matches_rref_stack(case):
    p, a, b = case
    before = a.copy()
    _assert_eliminations(a, b, p)
    assert np.array_equal(a, before)


def test_rref_of_bool_matches_int():
    rng = np.random.default_rng(2)
    for rows, cols in ((0, 3), (3, 0), (4, 5), (20, 20)):
        a = rng.integers(0, 2, size=(rows, cols)).astype(bool)
        b = np.ones(rows, dtype=np.int64)
        for p in (2, 5):
            _assert_eliminations(a, b, p)
            got, want = la.rref(a, p), la.rref(a.astype(np.int64), p)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


@pytest.mark.parametrize("p", [2, 3])
def test_rref_row_space_brute_force(p):
    """Every matrix of at most 6 cells over F_2 and F_3: R is in reduced
    row echelon form and spans the row space of the input."""
    shapes = [(rows, cols) for rows in range(7) for cols in range(7)
              if rows * cols <= 6]
    for rows, cols in shapes:
        stack = _all_vectors(p, rows * cols).reshape(
            p ** (rows * cols), rows, cols)
        for a in stack:
            r, rank, pivots = la.rref(a, p)
            _assert_rref(r, rank, pivots, p)
            assert _row_space(r, p) == _row_space(a, p)
            assert len(_row_space(a, p)) == p ** rank


def test_eliminations_reject_non_integer_entries():
    with pytest.raises(ValidationError):
        la.rref(np.array([[0.5, 1.0]]), 5)
    with pytest.raises(ValidationError):
        la.rref(np.array([[1.0, 0.0]]), 5)
    with pytest.raises(ValidationError):
        rref_stack(np.array([[[1.5, 0.0]]]), 5)
    with pytest.raises(ValidationError):
        la.solve(la.identity(2), np.array([1.9, 0.0]), 5)
    with pytest.raises(ValidationError):
        la.solve(np.array([[1.0, 0.0], [0.0, 1.0]]), [1, 0], 5)


def test_powers_digits_and_residues_reject_non_integer_entries():
    """A cast would truncate: 1.5 squared as the identity, 2.9 read as
    2."""
    u = la.Subspace.from_rows([[1, 2]], 2, 5)
    with pytest.raises(ValidationError):
        la.matpow([[1.5, 0], [0, 1]], 2, 5)
    with pytest.raises(ValidationError):
        la.digits([2.9], 2, 3)
    for call in (u.quotient_coords, u.contains_rows):
        with pytest.raises(ValidationError):
            call([[0.5, 1]])
    assert la.matpow([[1, 1], [0, 1]], 3, 5).tolist() == [[1, 3], [0, 1]]
    assert la.digits([5, True], 2, 3).tolist() == [[1, 0, 1], [1, 0, 0]]
    assert u.quotient_coords([[1], [3]]).tolist() == [[1]]
    assert u.contains_rows(np.array([[2, 4]], dtype=np.uint8))


def test_kernel_rank_nullity():
    rng = np.random.default_rng(3)
    for p in (2, 5):
        for _ in range(25):
            a = rng.integers(0, p, size=(3, 5))
            ker = la.kernel_basis_matrix(a, p)
            assert ker.shape[0] + la.rank(a, p) == a.shape[1]
            assert not ((a @ ker.T) % p).any()


def test_kernel_of_identity_trivial():
    assert la.kernel_basis_matrix(la.identity(4), 7).shape == (0, 4)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_empty_system_kernel_matches_rref_path(n, monkeypatch):
    """A system with no equations gets the kernel the rref path gives,
    the identity with every column free, without an elimination."""
    a = la.zeros(0, n)
    wants = {p: la._kernel_from_rref(*la.rref(a, p)[::2], n, p)
             for p in (2, 7)}

    def no_elimination(*args):
        pytest.fail("a system with no equations was eliminated")

    monkeypatch.setattr(la, "rref", no_elimination)
    for p, (want, want_support) in wants.items():
        basis, support = la.kernel_basis_and_support(a, p)
        assert basis.dtype == want.dtype and basis.shape == (n, n)
        assert np.array_equal(basis, want) and support == want_support
        assert basis.flags.writeable and basis.base is None


def test_solve_inconsistent():
    a = la.zeros(2, 3)
    assert la.solve(a, np.array([1, 0]), 5) is None


def test_solve_reads_its_matrix():
    """a is read like b: a nested list is solved where it raised a bare
    AttributeError, and a non-integer entry raises ValidationError."""
    part, ker = la.solve([[2]], [1], 3)
    assert part.tolist() == [2] and ker.shape[0] == 0
    with pytest.raises(ValidationError):
        la.solve([[1.5]], [1], 3)


MATRIX_READERS = {
    "rref": lambda a: la.rref(a, 3),
    "rank": lambda a: la.rank(a, 3),
    "inv": lambda a: la.inv(a, 3),
    "kernel_basis_and_support": lambda a: la.kernel_basis_and_support(a, 3),
    "kernel_basis_matrix": lambda a: la.kernel_basis_matrix(a, 3),
    "image": lambda a: la.image(a, 3),
    "solve": lambda a: la.solve(a, [1, 0], 3),
}


@pytest.mark.parametrize("name", MATRIX_READERS)
def test_matrix_arguments_are_read_as_matrices(name):
    """Every function of a matrix reads it with `integer_array` and one
    2-D check: a list of lists gives what its array gives, and an array
    of another dimension raises DimensionMismatch, where `inv`, the
    kernels and `image` raised a bare AttributeError on a list, and a 1-D
    array reached `rref` as a ValueError and `solve` as a numpy
    AxisError."""
    call = MATRIX_READERS[name]
    rows = [[2, 1], [1, 1]]
    assert repr(call(rows)) == repr(call(np.array(rows)))
    for bad in (np.array([1, 0]), np.ones((2, 2, 2), dtype=np.int64)):
        with pytest.raises(DimensionMismatch):
            call(bad)


def test_solve_verified_by_substitution():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        for _ in range(25):
            a = rng.integers(0, p, size=(4, 3))
            x = rng.integers(0, p, size=3)
            b = (a @ x) % p
            part, ker = la.solve(a, b, p)
            assert np.array_equal((a @ part) % p, b)


@st.composite
def linear_systems(draw):
    """(p, a, b) over F_2 or F_3 with at most 10 unknowns; b is a @ x for
    a random x in some draws, so that consistent systems are common."""
    p = draw(st.sampled_from([2, 3]))
    unknowns = draw(st.integers(0, 10))
    rows = draw(st.integers(0, 6))
    entries = st.integers(0, p - 1)
    a = np.array(draw(st.lists(entries, min_size=rows * unknowns,
                               max_size=rows * unknowns)),
                 dtype=np.int64).reshape(rows, unknowns)
    if draw(st.booleans()):
        x = np.array(draw(st.lists(entries, min_size=unknowns,
                                   max_size=unknowns)), dtype=np.int64)
        b = (a @ x) % p
    else:
        b = np.array(draw(st.lists(entries, min_size=rows, max_size=rows)),
                     dtype=np.int64)
    return p, a, b


def _all_vectors(p, width):
    """Every vector of F_p^width, one per row, in base-p order."""
    codes = np.arange(p ** width, dtype=np.int64)
    return (codes[:, None] // p ** np.arange(width, dtype=np.int64)) % p


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_matches_brute_force(case):
    p, a, b = case
    unknowns = a.shape[1]
    xs = _all_vectors(p, unknowns)
    solutions = xs[~((xs @ a.T - b) % p).any(axis=1)]
    result = la.solve(a, b, p)
    if len(solutions) == 0:
        assert result is None
        return
    part, kernel = result
    assert part.shape == (unknowns,) and kernel.shape[1] == unknowns
    spanned = (part + _all_vectors(p, kernel.shape[0]) @ kernel) % p
    weights = p ** np.arange(unknowns, dtype=np.int64)
    got = np.sort(spanned @ weights)
    assert np.array_equal(got, np.sort(solutions @ weights))
    assert len(np.unique(got)) == len(got)


def _loop_kernel(a, p):
    """The kernel basis and support filled entry by entry from `la.rref`."""
    r, _, pivots = la.rref(a, p)
    return kernel_from_rref_loop(r, pivots, a.shape[1], p)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 7]), rows=st.integers(0, 6),
       cols=st.integers(0, 8), extra=st.integers(0, 2), data=st.data())
def test_kernel_fill_matches_loop(p, rows, cols, extra, data):
    """The kernel read off an RREF by index assignments is byte for byte
    the entry-by-entry fill, with 0 rows or 0 columns too, and with columns
    past `cols` (the right-hand sides of `solve`) ignored."""
    cells = st.integers(0, p - 1)
    a = np.array(data.draw(st.lists(cells, min_size=rows * cols,
                                    max_size=rows * cols)),
                 dtype=np.int64).reshape(rows, cols)
    r, _, pivots = la.rref(a, p)
    tail = np.array(data.draw(st.lists(cells, min_size=rows * extra,
                                       max_size=rows * extra)),
                    dtype=np.int64).reshape(rows, extra)
    wide = np.hstack([r, tail])
    basis, support = la._kernel_from_rref(wide, pivots, cols, p)
    want, want_support = kernel_from_rref_loop(wide, pivots, cols, p)
    assert (basis.dtype, basis.shape) == (want.dtype, want.shape)
    assert basis.tobytes() == want.tobytes() and support == want_support


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_kernel_matches_entrywise_fill(case):
    p, a, b = case
    basis, support = la.kernel_basis_and_support(a, p)
    want, want_support = _loop_kernel(a, p)
    assert basis.dtype == want.dtype and basis.shape == want.shape
    assert np.array_equal(basis, want) and support == want_support
    assert len(support) + la.rank(a, p) == a.shape[1]
    assert np.array_equal(basis[:, list(support)],
                          la.identity(len(support)))
    assert not ((a @ basis.T) % p).any()
    # solve reads the kernel off its one elimination of [a | b]
    result = la.solve(a, b, p)
    if result is not None:
        kernel = result[1]
        assert kernel.dtype == want.dtype and np.array_equal(kernel, want)


def test_solve_eliminates_once(monkeypatch):
    calls = []
    original = la.rref

    def counting(a, p):
        calls.append(a.shape)
        return original(a, p)

    monkeypatch.setattr(la, "rref", counting)
    a = np.array([[1, 2, 0, 1], [0, 1, 1, 1]])
    part, kernel = la.solve(a, np.array([1, 2]), 3)
    assert calls == [(2, 5)]
    assert kernel.shape == (2, 4) and not ((a @ kernel.T) % 3).any()


@pytest.mark.parametrize("seed", range(6))
def test_product_matrices_match_kron(seed):
    rng = np.random.default_rng(seed)
    lead = (2, 3)[:seed % 3]
    r, s, c = rng.integers(0, 4, size=3)
    a = rng.integers(0, 7, size=lead + (r, s))
    b = rng.integers(0, 7, size=lead + (s, c))
    left = left_product_matrix(a, c)
    right = right_product_matrix(b, r)
    for idx in np.ndindex(*lead):
        assert np.array_equal(left[idx], np.kron(a[idx], la.identity(c)))
        assert np.array_equal(right[idx],
                              np.kron(la.identity(r), b[idx].T))
        x = rng.integers(0, 7, size=(s, c))
        assert np.array_equal(left[idx] @ x.reshape(-1),
                              (a[idx] @ x).reshape(-1))
        y = rng.integers(0, 7, size=(r, s))
        assert np.array_equal(right[idx] @ y.reshape(-1),
                              (y @ b[idx]).reshape(-1))


@st.composite
def powers(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 5))
    entries = draw(st.lists(st.integers(-20, 20), min_size=n * n,
                            max_size=n * n))
    return np.array(entries, dtype=np.int64).reshape(n, n), \
        draw(st.integers(0, 10)), p


@settings(max_examples=300, deadline=None)
@given(powers())
def test_matpow_matches_repeated_product(case):
    """matpow equals the product of e reduced copies of a, byte for byte
    (the identity at e = 0), as a fresh array."""
    a, e, p = case
    want = la.identity(a.shape[0])
    for _ in range(e):
        want = (want @ (a % p)) % p
    got = la.matpow(a, e, p)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, a)


@settings(max_examples=100, deadline=None)
@given(powers(), st.lists(st.integers(0, 2), max_size=2),
       st.integers(0, 2 ** 32))
def test_matpow_of_a_stack_is_each_power(case, lead, seed):
    """A stack (..., n, n) is raised matrix by matrix: every slice of the
    result is matpow of that slice, byte for byte, in a fresh array."""
    a, e, p = case
    n = a.shape[0]
    stack = np.random.default_rng(seed).integers(
        -20, 21, size=tuple(lead) + (n, n))
    got = la.matpow(stack, e, p)
    assert got.dtype == np.int64 and got.shape == stack.shape
    assert got.flags.writeable and not np.shares_memory(got, stack)
    for idx in np.ndindex(*lead):
        assert got[idx].tobytes() == la.matpow(stack[idx], e, p).tobytes()


def test_matpow_rejects_bad_input():
    with pytest.raises(ValidationError):
        la.matpow(la.identity(2), -1, 3)
    for shape in ((2, 3), (3,), (2, 2, 3)):
        with pytest.raises(DimensionMismatch):
            la.matpow(np.zeros(shape, dtype=np.int64), 2, 3)
    with pytest.raises(DimensionMismatch):
        la.matpow(np.zeros((2, 3), dtype=np.int64), 0, 3)


def test_inv():
    rng = np.random.default_rng(5)
    p = 7
    for _ in range(10):
        while True:
            a = rng.integers(0, p, size=(4, 4))
            if la.rank(a, p) == 4:
                break
        assert np.array_equal((a @ la.inv(a, p)) % p, la.identity(4))
    with pytest.raises(DimensionMismatch):
        la.inv(la.zeros(2, 2), 5)


def _intersection(u, v):
    """x = a @ U = b @ V: (a, b) runs over the kernel of [U^T | -V^T]."""
    p = u.p
    stacked = np.concatenate([u.basis.T, (-v.basis.T) % p], axis=1)
    ker = la.kernel_basis_matrix(stacked, p)
    return la.Subspace.from_rows((ker[:, :u.dim] @ u.basis) % p,
                                 u.ambient, p)


class TestSubspace:
    def test_canonical_under_change_of_basis(self):
        rng = np.random.default_rng(1)
        p = 3
        rows = rng.integers(0, p, size=(2, 5))
        u = la.Subspace.from_rows(rows, 5, p)
        for _ in range(20):
            g = rng.integers(0, p, size=(2, 2))
            if la.rank(g, p) < 2:
                continue
            v = la.Subspace.from_rows((g @ rows) % p, 5, p)
            assert u == v and hash(u) == hash(v)

    def test_read_only_view_of_a_writable_array_is_copied(self):
        b = np.array(la.Subspace.from_rows([[1, 0, 1]], 3, 2).basis)
        view = b.view()
        view.setflags(write=False)
        u = la.Subspace.from_rows(view, 3, 2)
        before, members = hash(u), {u}
        b[0, 2] = 0
        assert hash(u) == before and u in members
        assert u.basis.tolist() == [[1, 0, 1]]
        assert not np.shares_memory(u.basis, b)

    def test_basis_with_non_integer_entries_is_refused(self):
        frozen = np.array([[1.0, 0.5]])
        frozen.setflags(write=False)
        for basis in ([[1, 0.5]], np.array([[1.5, 0.0]]), frozen):
            with pytest.raises(ValidationError):
                la.Subspace.from_rows(basis, 2, 5)
        # another integer dtype is stored as a read-only int64 copy
        u = la.Subspace.from_rows(np.array([[1, 3]], dtype=np.int32), 2, 5)
        assert u.basis.dtype == np.int64 and not u.basis.flags.writeable

    def test_from_rows_checks_its_input_at_ambient_zero(self):
        """Rows, entries and modulus are checked before the ambient-0
        return, which took [[1, 2]], [[1.5]] and p = 4 as the zero
        subspace of F_p^0."""
        with pytest.raises(DimensionMismatch):
            la.Subspace.from_rows([[1, 2]], 0, 3)
        with pytest.raises(ValidationError):
            la.Subspace.from_rows([[1.5]], 0, 3)
        with pytest.raises(NotPrime):
            la.Subspace.from_rows(la.zeros(0, 0), 0, 4)
        u = la.Subspace.from_rows(la.zeros(0, 0), 0, 3)
        assert u == la.Subspace.zero(0, 3) and u.dim == 0

    def test_from_rows_keeps_its_rref_uncopied(self, monkeypatch):
        """The basis is a read-only slice of the frozen RREF array
        itself."""
        made = []
        original = la.rref

        def keeping(a, p):
            out = original(a, p)
            made.append(out[0])
            return out

        monkeypatch.setattr(la, "rref", keeping)
        u = la.Subspace.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 3]], 3, 5)
        assert u.dim == 2 and u.basis.base is made[0]
        assert not made[0].flags.writeable

    def test_from_rows_rejects_bad_rows(self):
        with pytest.raises(ValidationError):
            la.Subspace.from_rows([[0.5, 1]], 2, 5)
        with pytest.raises(ValidationError):
            la.Subspace.from_rows(np.ones((1, 2)), 2, 5)
        for rows in ([[1, 2, 3]], [1, 2, 3, 4], 3):
            with pytest.raises(DimensionMismatch):
                la.Subspace.from_rows(rows, 2, 5)
        # one row given flat, and no rows of any dtype
        assert la.Subspace.from_rows([1, 2], 2, 5).basis.tolist() == [[1, 2]]
        assert la.Subspace.from_rows(np.zeros((0, 2)), 2, 5).dim == 0

    def test_no_basis_and_pivots_are_taken_on_trust(self):
        """A subspace is made only by its constructors: the records that
        a public constructor took on trust (a pivot that is not the basis
        row's, a non-prime modulus, pivots left at a default) raise, and
        the constructors make the right ones or refuse the modulus."""
        for args in ((3, 2, [[0, 1]], (0,)), (4, 2, [[1, 0]], (0,)),
                     (3, 2, [[1, 0]])):
            with pytest.raises(TypeError):
                la.Subspace(*args)
        u = la.Subspace.from_rows([[0, 1]], 2, 3)
        assert u.pivots == (1,) and u.contains_rows([[0, 1]])
        assert la.Subspace.coordinate([1], 2, 3) == u
        assert la.Subspace.from_rows([[1, 0]], 2, 3).pivots == (0,)
        with pytest.raises(NotPrime):
            la.Subspace.from_rows([[1, 0]], 2, 4)
        with pytest.raises(NotPrime):
            la.Subspace.coordinate([0], 2, 4)

    @pytest.mark.parametrize("p", [2, 3])
    def test_coordinate_subspaces_equal_their_spans(self, p, monkeypatch):
        """On every column subset of F_p^n, n <= 6, the coordinate
        subspace equals the span of the same unit rows, with the same
        hash, basis and pivots, and makes no `rref` call."""
        cases = [(n, cols) for n in range(7) for size in range(n + 1)
                 for cols in itertools.combinations(range(n), size)]
        want = [la.Subspace.from_rows(la.identity(n).take(cols, 0), n, p)
                for n, cols in cases]
        calls = []
        original = la.rref
        monkeypatch.setattr(la, "rref",
                            lambda a, p: calls.append(a) or original(a, p))
        for (n, cols), w in zip(cases, want):
            u = la.Subspace.coordinate(cols, n, p)
            assert u == w and hash(u) == hash(w)
            assert u.pivots == w.pivots == cols
            assert u.basis.tolist() == w.basis.tolist()
            assert u.basis.dtype == np.int64 and not u.basis.flags.writeable
        assert calls == []

    @pytest.mark.parametrize("cols, n, p", [
        ((0, 0), 2, 3), ((1, 0), 2, 3), ((2,), 2, 3), ((-1,), 2, 3),
        ((0.5,), 2, 3), (("0",), 2, 3), ([[0]], 2, 3), (0, 2, 3),
        ((), -1, 3), ((0,), 2, 4), ((), 2, 1), ((0,), 2, 2.0)], ids=[
        "repeated", "decreasing", "out-of-range", "negative", "float",
        "string", "nested", "scalar", "negative-ambient", "p=4", "p=1",
        "p=2.0"])
    def test_coordinate_refuses_bad_columns_and_moduli(self, cols, n, p):
        with pytest.raises(ValidationError):
            la.Subspace.coordinate(cols, n, p)

    def test_sum_and_intersection_self(self):
        u = la.Subspace.from_rows([[1, 0, 1], [0, 1, 0]], 3, 2)
        assert u + u == u
        assert _intersection(u, u) == u

    def test_dimension_formula(self):
        rng = np.random.default_rng(4)
        p = 3
        for _ in range(30):
            u = la.Subspace.from_rows(rng.integers(0, p, size=(2, 4)), 4, p)
            v = la.Subspace.from_rows(rng.integers(0, p, size=(2, 4)), 4, p)
            s = u + v
            i = _intersection(u, v)
            assert s.dim + i.dim == u.dim + v.dim
            assert contains(s, u) and contains(s, v)
            assert contains(u, i) and contains(v, i)

    def test_quotient_map_kernel(self):
        p = 5
        u = la.Subspace.from_rows([[1, 2, 0, 4], [0, 0, 1, 1]], 4, p)
        q, s = quotient_map(4, u)
        assert not ((q @ u.basis.T) % p).any()
        assert np.array_equal((q @ s) % p, la.identity(2))
        assert la.rank(q, p) == 2

    def test_coordinates(self):
        p = 3
        u = la.Subspace.from_rows([[1, 0, 2], [0, 1, 1]], 3, p)
        vec = (2 * u.basis[0] + u.basis[1]) % p
        coords = coordinates_rows(u, vec)
        assert np.array_equal(coords[0], [2, 1])
        with pytest.raises(DimensionMismatch):
            coordinates_rows(u, np.array([0, 0, 1]))

    def test_copies_keep_a_read_only_basis(self):
        """A deep copy and a pickle round trip rebuild the subspace through
        `from_rows`: equal, with the same hash and pivots, and a read-only
        basis, so a write cannot change the copy's hash."""
        for u in (la.Subspace.from_rows([[1, 2, 0], [0, 0, 1]], 3, 5),
                  la.Subspace.coordinate((1,), 3, 5), la.Subspace.zero(0, 2)):
            for v in (copy.deepcopy(u), copy.copy(u),
                      pickle.loads(pickle.dumps(u))):
                assert v == u and hash(v) == hash(u) and v.pivots == u.pivots
                assert not v.basis.flags.writeable
                if v.basis.size:
                    with pytest.raises(ValueError):
                        v.basis[0, 0] = 3


def brute_span(rows, p):
    """All F_p-combinations of the rows, as a set of tuples."""
    rows = np.asarray(rows, dtype=np.int64)
    return {tuple(((np.asarray(c, dtype=np.int64) @ rows) % p).tolist())
            for c in itertools.product(range(p), repeat=rows.shape[0])}


@st.composite
def subspace_pairs(draw):
    """Two row sets over F_2 or F_3 in an ambient space of dimension <= 4,
    each of at most 3 rows, and one extra vector."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    entry = st.integers(0, p - 1)

    def rows():
        count = draw(st.integers(0, 3))
        flat = draw(st.lists(entry, min_size=count * n, max_size=count * n))
        return np.array(flat, dtype=np.int64).reshape(count, n)

    vec = np.array(draw(st.lists(entry, min_size=n, max_size=n)),
                   dtype=np.int64)
    return p, n, rows(), rows(), vec


class TestSubspaceBruteForce:
    """Subspace operations against span enumeration over F_2 and F_3."""

    @settings(max_examples=150, deadline=None)
    @given(subspace_pairs())
    def test_sum_and_containment(self, case):
        p, n, a, b, _ = case
        u = la.Subspace.from_rows(a, n, p)
        v = la.Subspace.from_rows(b, n, p)
        span_u, span_v = brute_span(a, p), brute_span(b, p)
        assert brute_span(u.basis, p) == span_u
        assert len(span_u) == p ** u.dim
        total = {tuple((np.add(x, y) % p).tolist())
                 for x in span_u for y in span_v}
        assert brute_span((u + v).basis, p) == total
        assert contains(u, v) == (span_v <= span_u)
        assert u.contains_rows(b) == (span_v <= span_u)

    @settings(max_examples=150, deadline=None)
    @given(subspace_pairs())
    def test_coordinates_rows(self, case):
        p, n, a, _, vec = case
        u = la.Subspace.from_rows(a, n, p)
        span_u = brute_span(a, p)
        assert u.contains_rows(vec) == (tuple(vec.tolist()) in span_u)
        for x in span_u:
            coords = coordinates_rows(u, np.array(x))
            assert coords.shape == (1, u.dim)
            assert np.array_equal((coords @ u.basis) % p, [x])
        if tuple(vec.tolist()) not in span_u:
            with pytest.raises(DimensionMismatch):
                coordinates_rows(u, vec)
            with pytest.raises(DimensionMismatch):
                coordinates_rows(u, np.stack([np.zeros(n, np.int64), vec]))

    @settings(max_examples=150, deadline=None)
    @given(subspace_pairs())
    def test_quotient_map(self, case):
        p, n, a, _, _ = case
        u = la.Subspace.from_rows(a, n, p)
        q, sec = quotient_map(n, u)
        assert q.shape == (n - u.dim, n) and sec.shape == (n, n - u.dim)
        assert np.array_equal((q @ sec) % p, la.identity(n - u.dim))
        kernel = {x for x in itertools.product(range(p), repeat=n)
                  if not ((q @ np.array(x)) % p).any()}
        assert kernel == brute_span(a, p)


def test_image():
    a = np.array([[1, 2], [2, 4], [0, 0]])
    img = la.image(a, 5)
    assert img.dim == 1
    assert img.contains_rows(np.array([[1, 2, 0]]))


def test_block_diag_with_empty_blocks():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[5], [6], [7]])
    blocks = [la.zeros(0, 2), a, la.zeros(2, 0), b, la.zeros(0, 0),
              la.zeros(1, 0)]
    got = la.block_diag(*blocks)
    want = la.zeros(8, 5)
    want[0:2, 2:4] = a
    want[4:7, 4:5] = b
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert la.block_diag().shape == (0, 0)
    assert la.block_diag(la.zeros(0, 3), la.zeros(2, 0)).shape == (2, 3)


def test_block_diag_rejects_non_integer_blocks():
    # a cast would truncate these to [[1, 0], [0, 2]]
    with pytest.raises(ValidationError):
        la.block_diag(np.array([[1.5]]), np.array([[2.7]]))
    with pytest.raises(ValidationError):
        la.block_diag(la.identity(2), [[0.5]])
    # empty float blocks carry no entries to truncate
    assert la.block_diag(np.zeros((0, 2)), la.identity(1)).shape == (1, 3)


def test_gaussian_binomial_small():
    # independent product-formula values
    assert la.gaussian_binomial(4, 2, 2) == 35
    assert la.gaussian_binomial(3, 1, 3) == 13  # 1 + 3 + 9
    assert la.gaussian_binomial(5, 0, 2) == 1
    assert la.gaussian_binomial(5, 5, 3) == 1
    assert la.gaussian_binomial(2, 3, 2) == 0


@pytest.mark.parametrize("p", [2, 3])
def test_enumerate_subspaces_counts(p):
    """Brute force: the distinct rank-d row spaces of all d x n matrices,
    for every n <= 4 and d with at most 3^9 matrices."""
    for n in range(5):
        for d in range(n + 1):
            if p ** (d * n) > 3 ** 9:
                continue
            spaces = {la.Subspace.from_rows(
                np.array(entries, dtype=np.int64).reshape(d, n), n, p)
                for entries in itertools.product(range(p), repeat=d * n)}
            count = sum(1 for u in spaces if u.dim == d)
            assert count == la.gaussian_binomial(n, d, p)


def test_lagrange_line():
    assert la.lagrange_interpolate([(2, 5), (3, 7)]) == (1, 2)


def test_lagrange_constant():
    assert la.lagrange_interpolate([(2, 4), (5, 4), (7, 4)],
                                   degree_bound=0) == (4,)


def test_lagrange_overdetermined_mismatch():
    with pytest.raises(OverdeterminedMismatch):
        la.lagrange_interpolate([(2, 5), (3, 7), (5, 12)], degree_bound=1)


def test_lagrange_non_integer():
    with pytest.raises(NonIntegerCoefficient):
        la.lagrange_interpolate([(0, 0), (2, 1)], degree_bound=1)


def test_lagrange_quadratic_exact():
    pts = [(q, 3 * q * q - q + 2) for q in (2, 3, 5, 7)]
    assert la.lagrange_interpolate(pts, degree_bound=2) == (2, -1, 3)


def test_stable_seed_deterministic():
    s1 = la.stable_seed((0, "split", (1, 2)))
    s2 = la.stable_seed((0, "split", (1, 2)))
    assert s1 == s2
    assert la.stable_seed((0, "a")) != la.stable_seed((0, "b"))


def test_kernel_basis_subspace():
    a = np.array([[1, 1, 0], [0, 0, 1]])
    ker = la.Subspace.from_rows(la.kernel_basis_matrix(a, 2), 3, 2)
    assert ker.dim == 1
    assert ker.contains_rows(np.array([[1, 1, 0]]))


def test_quotient_coords_checks_column_length():
    """A column of another length than the ambient dimension is refused:
    a length-4 column read as a member, a length-2 one hit an IndexError."""
    u = la.Subspace.from_rows([[1, 1, 0]], 3, 5)
    for cols in ([[1], [1], [0], [4]], [[1], [1]], [1, 1, 0, 4], 3):
        with pytest.raises(DimensionMismatch):
            u.quotient_coords(cols)
    with pytest.raises(DimensionMismatch):
        u.contains_rows([[1, 1, 0, 4]])
    assert u.quotient_coords([[1], [1], [0]]).tolist() == [[0], [0]]
    assert u.quotient_coords([2, 1, 3]).tolist() == [4, 3]
    assert u.contains_rows([[2, 2, 0]]) and not u.contains_rows([2, 1, 3])
