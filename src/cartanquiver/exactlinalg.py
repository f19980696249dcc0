"""Exact linear algebra over prime fields F_p.

Matrices are numpy int64 arrays with entries in {0, ..., p-1}; they act on
column vectors.  A matrix, vector or basis with entries that are not
integers raises ValidationError instead of being truncated, and a matrix
argument that is not 2-D (`matpow` also takes stacks) DimensionMismatch.
A subspace is made only by `Subspace.from_rows` or `Subspace.coordinate`
and stored through its unique reduced row-echelon basis, so two equal
subspaces always compare (and hash) equal.  The module also provides
Gaussian binomials and exact Lagrange interpolation over the integers.

Every solve, rank, inverse and kernel goes through one elimination,
`rref`.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .cartan import integers, read_int, read_value
from .errors import (
    DimensionMismatch,
    InternalCheckError,
    ModulusTooLarge,
    NonIntegerCoefficient,
    NotPrime,
    OverdeterminedMismatch,
    ValidationError,
)

_PRIME_CACHE: set[int] = set()

# Matrix products are reduced mod p before they enter another product
# (multiplying by a quotient section, whose columns are unit vectors, only
# selects columns), so the largest intermediate value is an inner product
# of n terms below p, at most n (p-1)^2.  The longest inner product the
# library forms runs over one axis of a dense int64 array (at most the
# unknowns of a Hom system); the bound is chosen for n = 2^32, where one
# dense row already takes 32 GiB.  MAX_PRIME is the largest prime with
# (p-1)^2 < 2^31, so n (p-1)^2 < 2^63 and int64 arithmetic stays exact.
MAX_PRIME = 46337


def stable_seed(obj) -> int:
    """Deterministic 64-bit seed from any repr-stable object (nested tuples
    of ints and strings); independent of PYTHONHASHSEED."""
    import hashlib

    digest = hashlib.blake2b(repr(obj).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def rng_from(seed) -> np.random.Generator:
    """Build a Generator from an int, a Generator, or any stable object."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    return np.random.default_rng(stable_seed(seed))


def check_prime(p: int) -> int:
    """Return p if it is a supported prime.

    Raises ModulusTooLarge above MAX_PRIME = 46337, the largest prime with
    n (p-1)^2 < 2^63 for inner products of length n = 2^32 (see the note at
    MAX_PRIME), and NotPrime for a modulus that is not an integer prime.
    """
    try:
        p = operator.index(p)
    except TypeError:
        raise NotPrime(f"modulus {p!r} is not an integer") from None
    if p in _PRIME_CACHE:
        return p
    if p > MAX_PRIME:
        raise ModulusTooLarge(
            f"modulus {p} exceeds the supported bound {MAX_PRIME}: int64 "
            f"products mod p are exact only up to it")
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise NotPrime(f"modulus {p} is not prime")
    _PRIME_CACHE.add(p)
    return p


def integer_array(a) -> np.ndarray:
    """a as an int64 array.  Raises ValidationError when its entries are not
    integers (bool counts as integer; an empty array of any dtype is
    accepted), where a cast would truncate them, or when a is ragged."""
    try:
        m = np.asarray(a)
    except ValueError as exc:
        raise ValidationError(f"expected an integer array: {exc}") from exc
    if m.dtype.kind not in "biu" and m.size:
        raise ValidationError(
            f"expected integer entries, got dtype {m.dtype}")
    return m.astype(np.int64, copy=False)


def _matrix(a) -> np.ndarray:
    """`integer_array` of a matrix: DimensionMismatch unless a is 2-D."""
    m = integer_array(a)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    return m


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of the given blocks, in order; a block may
    have no rows or no columns.  Raises ValidationError for a block with
    entries that are not integers, DimensionMismatch for one that is not
    2-D."""
    blocks = [_matrix(b) for b in blocks]
    out = zeros(sum(b.shape[0] for b in blocks),
                sum(b.shape[1] for b in blocks))
    row = col = 0
    for b in blocks:
        out[row:row + b.shape[0], col:col + b.shape[1]] = b
        row += b.shape[0]
        col += b.shape[1]
    return out


DIGIT_CHUNK = 4096   # codes per block of digit_chunks


def digits(codes, p: int, width: int) -> np.ndarray:
    """Base-p digits (..., width) of int64 codes, least significant first."""
    rest = integer_array(codes)
    out = np.empty(rest.shape + (width,), dtype=np.int64)
    for t in range(width):
        rest, out[..., t] = np.divmod(rest, p)
    return out


def digit_chunks(p: int, width: int, start: int = 0):
    """Digits of the codes start, ..., p**width - 1, in blocks of at most
    DIGIT_CHUNK rows, each computed when reached."""
    total = p ** width
    for lo in range(start, total, DIGIT_CHUNK):
        yield digits(np.arange(lo, min(total, lo + DIGIT_CHUNK)), p, width)


def matpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a**e mod p (a fresh int64 array) by repeated squaring, reducing at
    every product: the result starts at the lowest power of two that e
    needs, and squaring stops at its highest.  a may be a stack
    (..., n, n) of matrices, each raised to the power e.  Raises
    DimensionMismatch for matrices that are not square, ValidationError
    for an exponent e that is not an integer >= 0 (`read_int`)."""
    a = integer_array(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"matpow needs square matrices, got shape "
                                f"{a.shape}")
    e = read_int(e, "exponent", 0)
    if e == 0:
        return np.broadcast_to(identity(a.shape[-1]), a.shape).copy()
    base = a % p
    while not e & 1:
        base = (base @ base) % p
        e >>= 1
    result = base
    while e > 1:
        e >>= 1
        base = (base @ base) % p
        if e & 1:
            result = (result @ base) % p
    return result


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """Reduced row echelon form of a mod p.

    Returns (R, rank, pivot_columns); R is a fresh array that owns its
    memory, the input is not modified.  The RREF is the canonical
    representative of the row space.  Raises ValidationError for entries
    that are not integers and the errors of `check_prime` for p, which
    every solve, rank, inverse, kernel and image inherits.

    Gauss-Jordan on the rows as lists of Python ints: the library's
    systems are small and sparse, where numpy's calls per pivot cost more
    than the arithmetic.  A pivot row is zero left of its pivot and at the
    other pivot columns, so each elimination touches only its non-zero
    entries right of the pivot.
    """
    p = check_prime(p)
    m = _matrix(a) % p
    rows, cols = m.shape
    a = m.tolist()
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if a[i][c]:
                break
        else:
            continue
        row = a[i]
        a[i] = a[r]
        a[r] = row
        piv = row[c]
        if piv != 1:
            s = pow(piv, p - 2, p)
            for j in range(c, cols):
                if row[j]:
                    row[j] = row[j] * s % p
        nz = [(j, row[j]) for j in range(c + 1, cols) if row[j]]
        for i in range(rows):
            other = a[i]
            f = other[c]
            if f and i != r:
                other[c] = 0
                for j, x in nz:
                    other[j] = (other[j] - f * x) % p
        pivots.append(c)
        r += 1
    # with rank 0, m is zero (and may have no cells) and is its own RREF
    return (np.array(a, dtype=np.int64) if r else m), r, tuple(pivots)


def rank(a: np.ndarray, p: int) -> int:
    return rref(a, p)[1]


def inv(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p; raises if singular."""
    a = _matrix(a) % p
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"inv: matrix {a.shape} is not square")
    r, rk, _ = rref(np.concatenate([a, identity(n)], axis=1), p)
    if rk < n or not np.array_equal(r[:, :n], identity(n)):
        raise DimensionMismatch("inv: matrix is singular")
    return r[:, n:]


def kernel_basis_and_support(a: np.ndarray, p: int
                             ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Kernel basis rows plus the free columns where they read off as
    coordinates: basis[t, support[t]] == 1 and 0 at the other support
    columns, so the coefficients of any kernel vector are its values at
    the support columns.  A system with no equations has the identity as
    its kernel basis and every column free, with no elimination."""
    a = _matrix(a)
    if a.shape[0] == 0:
        return identity(a.shape[1]), tuple(range(a.shape[1]))
    r, _, pivots = rref(a, p)
    return _kernel_from_rref(r, pivots, a.shape[1], p)


def _kernel_from_rref(r: np.ndarray, pivots: tuple[int, ...], cols: int,
                      p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """`kernel_basis_and_support` of a matrix whose RREF has r[:, :cols] as
    its first cols columns and the given pivots, all below cols."""
    free = [c for c in range(cols) if c not in pivots]
    if not pivots:
        return identity(cols), tuple(free)
    # row t: 1 at the free column free[t], and -r[row, free[t]] at the pivot
    # column pivots[row] of each row
    basis = zeros(len(free), cols)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -r[:len(pivots), free].T % p
    return basis, tuple(free)


def kernel_basis_matrix(a: np.ndarray, p: int) -> np.ndarray:
    """Rows span the right kernel {x : a @ x == 0 mod p}."""
    return kernel_basis_and_support(a, p)[0]


def image(a: np.ndarray, p: int) -> "Subspace":
    """Column space of a as a canonical subspace."""
    a = _matrix(a)
    return Subspace.from_rows(a.T, a.shape[0], p)


def solve(a: np.ndarray, b: np.ndarray, p: int):
    """Solve a @ x = b mod p for a column vector (or stacked columns) b.

    Returns (particular, kernel_rows) or None when inconsistent.  Every
    returned solution is verified by substitution.  One elimination of
    [a | b] serves both: when the system is consistent, its left block is
    the RREF of a.
    """
    a = _matrix(a) % p
    b = integer_array(b) % p
    single = b.ndim == 1
    bc = b.reshape(-1, 1) if single else b
    if bc.ndim != 2 or bc.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"solve: {a.shape} vs right-hand side {bc.shape}")
    aug = np.concatenate([a, bc], axis=1)
    r, rk, pivots = rref(aug, p)
    ncols = a.shape[1]
    if any(c >= ncols for c in pivots):
        return None
    x = zeros(ncols, bc.shape[1])
    for row, c in enumerate(pivots):
        x[c] = r[row, ncols:]
    if ((a @ x - bc) % p).any():
        raise InternalCheckError("solve: substitution check failed")
    part = x[:, 0] if single else x
    return part, _kernel_from_rref(r, pivots, ncols, p)[0]


@dataclass(frozen=True, init=False)
class Subspace:
    """A subspace of F_p^n, canonically represented by its RREF basis rows
    (the identity on the pivot columns), made only by `from_rows` and
    `coordinate`, which each establish that form: there is no public
    `__init__`.  The basis is a read-only int64 array the constructor has
    just made, so a subspace never changes, nor its hash."""

    p: int
    ambient: int
    basis: np.ndarray = field(compare=False)
    pivots: tuple[int, ...] = field(compare=False)

    @staticmethod
    def _of(p, ambient, basis, pivots) -> "Subspace":
        u = object.__new__(Subspace)
        vars(u).update(p=p, ambient=ambient, basis=basis, pivots=pivots)
        return u

    @staticmethod
    def from_rows(rows, ambient: int, p: int) -> "Subspace":
        """The span of the given rows of length `ambient` (a stack of rows
        is read row by row).  Raises ValidationError for entries that are
        not integers or an ambient that is not an integer >= 0,
        DimensionMismatch for rows of another length, and the errors of
        `check_prime` for the modulus, at every ambient dimension."""
        ambient = read_int(ambient, "ambient", 0)
        m = integer_array(rows)
        if m.size and m.shape[-1:] != (ambient,):
            raise DimensionMismatch(
                f"rows of shape {m.shape} in ambient dimension {ambient}")
        if ambient == 0:
            return Subspace.coordinate((), 0, p)
        r, rk, piv = rref(m.reshape(-1, ambient), p)
        # R owns its memory, so the read-only basis aliases nothing
        r.setflags(write=False)
        return Subspace._of(p, ambient, r[:rk], piv)

    @staticmethod
    def coordinate(columns, ambient: int, p: int) -> "Subspace":
        """The span of the unit vectors at the given columns, with no
        elimination: its basis is those identity rows, its pivots those
        columns.  Raises ValidationError unless the ambient is an integer
        >= 0 and the columns are integers strictly increasing in
        range(ambient), and the errors of `check_prime` for the modulus."""
        ambient = read_int(ambient, "ambient", 0)
        pivots = read_value(integers, columns, "bad columns")
        if not all(map(operator.lt, (-1,) + pivots, pivots + (ambient,))):
            raise ValidationError(f"columns {pivots} are not strictly "
                                  f"increasing in range({ambient})")
        basis = identity(ambient).take(pivots, 0)
        basis.setflags(write=False)
        return Subspace._of(check_prime(p), ambient, basis, pivots)

    @staticmethod
    def zero(ambient: int, p: int) -> "Subspace":
        return Subspace.coordinate((), ambient, p)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.p == other.p and self.ambient == other.ambient
                and np.array_equal(self.basis, other.basis))

    def __hash__(self):
        return hash((self.p, self.ambient, self.basis.tobytes()))

    def __reduce__(self):
        """A copy or pickle is rebuilt by `from_rows` (read-only basis)."""
        return Subspace.from_rows, (self.basis, self.ambient, self.p)

    def contains_rows(self, vectors) -> bool:
        """Whether U holds every row: their `quotient_coords` are zero."""
        return not self.quotient_coords(np.atleast_2d(vectors).T).any()

    @functools.cached_property
    def off_pivots(self) -> tuple[int, ...]:
        """The coordinates off the pivots, ascending: the coordinates of
        F_p^n / U."""
        pivots = set(self.pivots)
        return tuple(c for c in range(self.ambient) if c not in pivots)

    def quotient_coords(self, cols) -> np.ndarray:
        """The images q @ cols of column vectors under the projection q
        onto F_p^n / U, whose coordinates are those off the pivots P: the
        residue cols - B^T cols[P] there, where it can be non-zero (B is
        the identity on P).  A column lies in U exactly when its image is
        zero.  Columns of another length raise DimensionMismatch."""
        cols = integer_array(cols) % self.p
        if cols.shape[:1] != (self.ambient,):
            raise DimensionMismatch(f"columns of shape {cols.shape} in "
                                    f"ambient dimension {self.ambient}")
        off = self.off_pivots
        return (cols.take(off, 0) - self.basis.take(off, 1).T
                @ cols.take(self.pivots, 0)) % self.p

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.p != other.p or self.ambient != other.ambient:
            raise DimensionMismatch("subspaces live in different spaces")
        return Subspace.from_rows(
            np.concatenate([self.basis, other.basis]), self.ambient, self.p)


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n (exact integer).  Raises
    ValidationError for n, d or q that are not integers and for a field
    size q < 2."""
    n, d = read_value(integers, (n, d), "bad n or d")
    q = read_int(q, "q", 2)
    if d < 0 or d > n:
        return 0
    num = 1
    den = 1
    for t in range(d):
        num *= q ** (n - t) - 1
        den *= q ** (t + 1) - 1
    if num % den:
        raise InternalCheckError(
            f"gaussian_binomial({n}, {d}, {q}): {num} is not a multiple "
            f"of {den}")
    return num // den


def lagrange_interpolate(points: Sequence[tuple[int, int]],
                         degree_bound: Optional[int] = None
                         ) -> tuple[int, ...]:
    """Integer-coefficient polynomial through (q, value) points.

    Interpolates on the first degree_bound + 1 points and checks the rest;
    raises ValidationError for points that are not integer pairs or a
    bound below 0, NonIntegerCoefficient when the unique interpolant is not
    an integer polynomial, OverdeterminedMismatch when a surplus point
    disagrees.  Coefficients are returned in ascending degree.
    """
    points = read_value(lambda ps: [(q, v) for q, v in map(integers, ps)],
                        points, "bad points")
    qs = [q for q, _ in points]
    if len(set(qs)) != len(qs):
        raise DimensionMismatch("interpolation points must be distinct")
    if degree_bound is None:
        degree_bound = len(points) - 1
    else:
        degree_bound = read_int(degree_bound, "degree_bound", 0)
    if degree_bound < 0 or len(points) < degree_bound + 1:
        raise DimensionMismatch(
            f"need {degree_bound + 1} points, got {len(points)}")
    use = list(points[:degree_bound + 1])
    # Lagrange form with exact rational arithmetic
    coeffs = [Fraction(0)] * (degree_bound + 1)
    for qi, vi in use:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for qj, _ in use:
            if qj == qi:
                continue
            denom *= Fraction(qi - qj)
            # multiply basis polynomial by (x - qj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                nxt[t] -= c * qj
                nxt[t + 1] += c
            basis = nxt
        scale = Fraction(vi) / denom
        for t, c in enumerate(basis):
            coeffs[t] += scale * c
    if any(c.denominator != 1 for c in coeffs):
        raise NonIntegerCoefficient(
            f"interpolant has non-integer coefficients: {coeffs}")
    out = tuple(int(c) for c in coeffs)
    for q, v in points[degree_bound + 1:]:
        if eval_poly(out, q) != v:
            raise OverdeterminedMismatch(
                f"degree-{degree_bound} fit misses point ({q}, {v})")
    return out


def eval_poly(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
