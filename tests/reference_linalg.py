"""Reference linear algebra for the tests: a batched RREF of a stack of
equally shaped matrices, one round of numpy array operations per column,
checked against `exactlinalg.rref` matrix by matrix; and the projection
onto a quotient space with a section of it as explicit matrices, which
the library reads off the subspaces instead; and the kernel basis read off
an RREF entry by entry, which the library fills with two index
assignments; and the matrices of X |-> a @ X and X |-> X @ b on row-major
vecs, kron(a, I) and kron(I, b^T), which the library's Hom solver builds
as its order-1 ring factors; and the candidate charts of a flag search
filled as ring matrices from their digit codes, with the pivot columns
found by searching each chart, which the library evaluates from one stack
of affine chart families per key."""

import numpy as np

from cartanquiver import exactlinalg as la
from cartanquiver import flagvar


def _inverse_stack(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses of the non-zero residues x mod p, as x^(p-2) by repeated
    squaring on the whole array."""
    out = np.ones_like(x)
    base = x % p
    e = p - 2
    while e:
        if e & 1:
            out = (out * base) % p
        base = (base * base) % p
        e >>= 1
    return out


def rref_stack(a: np.ndarray, p: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon forms of a stack of matrices mod p.

    a has shape (N, rows, cols).  Returns (R, ranks, pivots): R[b] is the
    RREF of a[b] as `exactlinalg.rref` computes it, ranks[b] its rank, and
    pivots[b, :ranks[b]] its pivot columns (-1 beyond).  Each column is
    one round of array operations over the matrices that still have a
    pivot to find; every product is reduced mod p before it enters another
    (see exactlinalg.MAX_PRIME).
    """
    m = la.integer_array(a) % p
    n, rows, cols = m.shape
    ranks = np.zeros(n, dtype=np.int64)
    pivots = np.full((n, rows), -1, dtype=np.int64)
    row_ids = np.arange(rows)
    for c in range(cols):
        cand = (m[:, :, c] != 0) & (row_ids >= ranks[:, None])
        live = np.flatnonzero(cand.any(axis=1))
        if live.size == 0:
            continue
        sub = m if live.size == n else m[live]
        k = np.arange(live.size)
        r = ranks[live]
        i = cand[live].argmax(axis=1)
        # rows at or below the rank are zero left of c, so only the
        # columns from c on change
        lead = sub[k, i, c:]
        lead = (lead * _inverse_stack(lead[:, 0], p)[:, None]) % p
        sub[k, i, c:] = sub[k, r, c:]
        sub[k, r, c:] = lead
        factor = sub[:, :, c].copy()
        factor[k, r] = 0
        sub[:, :, c:] -= factor[:, :, None] * lead[:, None, :]
        sub[:, :, c:] %= p
        if sub is not m:
            m[live] = sub
        pivots[live, r] = c
        ranks[live] += 1
    return m, ranks, pivots


def quotient_map(ambient: int, sub: la.Subspace
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Projection q onto F_p^n / U together with a section s, both
    read-only.

    q has shape (n - dim U, n) and kernel exactly U; s has shape
    (n, n - dim U) and q @ s = identity.  The quotient coordinates are the
    non-pivot coordinates of U's RREF basis (`Subspace.quotient_coords`).
    """
    if sub.ambient != ambient:
        raise la.DimensionMismatch(
            "subspace does not match ambient dimension")
    ident = la.identity(ambient)
    q = sub.quotient_coords(ident)
    s = ident.take(sub.off_pivots, 1)
    if sub.dim and ((q @ sub.basis.T) % sub.p).any():
        raise la.InternalCheckError("quotient_map: kernel check failed")
    q.setflags(write=False)
    s.setflags(write=False)
    return q, s


def kernel_from_rref_loop(r: np.ndarray, pivots: tuple[int, ...], cols: int,
                          p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """`exactlinalg._kernel_from_rref` entry by entry: for each free column
    f a basis row with 1 at f and -r[row, f] mod p at the pivot column of
    each row."""
    free = [c for c in range(cols) if c not in pivots]
    basis = la.zeros(len(free), cols)
    for t, f in enumerate(free):
        basis[t, f] = 1
        for row, c in enumerate(pivots):
            basis[t, c] = (-r[row, f]) % p
    return basis, tuple(free)


def left_product_matrix(a: np.ndarray, cols: int) -> np.ndarray:
    """Matrix of X |-> a @ X on the row-major vec of X with `cols` columns,
    that is kron(a, I_cols); a may be a stack (..., r, s) of matrices."""
    r, s = a.shape[-2:]
    out = a[..., :, None, :, None] * la.identity(cols)[:, None, :]
    return out.reshape(a.shape[:-2] + (r * cols, s * cols))


def right_product_matrix(b: np.ndarray, rows: int) -> np.ndarray:
    """Matrix of X |-> X @ b on the row-major vec of X with `rows` rows,
    that is kron(I_rows, b^T); b may be a stack (..., s, c) of matrices."""
    s, c = b.shape[-2:]
    out = (la.identity(rows)[:, None, :, None]
           * np.swapaxes(b, -1, -2)[..., None, :, None, :])
    return out.reshape(b.shape[:-2] + (rows * c, rows * s))


def chart_count(m_order: int, r: int, e: int, p: int) -> int:
    """The number of charts of a key, p^len(slots) per pivot pattern of
    `flagvar._chart_patterns`, without the candidate cache."""
    return sum(p ** len(slots)
               for _, slots in flagvar._chart_patterns(m_order, r, e))


def chart_block(m_order: int, r: int, e: int, p: int, start: int,
                stop: int) -> np.ndarray:
    """Charts start, ..., stop - 1 (in chart order) of a key as ring
    matrices, one (r, e, m_order) coefficient array per chart: per pivot
    pattern of `flagvar._chart_patterns`, a 1 at each (pivot, col) in
    degree 0 and the base-p digits of the chart's code within its pattern
    at the pattern's slots, least significant first."""
    out = np.zeros((stop - start, r, e, m_order), dtype=np.int64)
    offset = 0
    for pivots, slots in flagvar._chart_patterns(m_order, r, e):
        size = p ** len(slots)
        lo, hi = max(start, offset), min(stop, offset + size)
        if lo < hi:
            part = out[lo - start:hi - start]
            for col, piv in enumerate(pivots):
                part[:, piv, col, 0] = 1
            rows, cols, degrees = np.array(slots, dtype=int).reshape(-1, 3).T
            codes = np.arange(lo - offset, hi - offset)
            part[:, rows, cols, degrees] = la.digits(codes, p, len(slots))
        offset += size
    return out


def chart_table(m_order: int, r: int, e: int, p: int, start: int,
                stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The row matrices (N, e*m, r*m) of `chart_block` (`flagvar._chart_rows`)
    and their pivot columns (N, e*m): the pivot of ring column col is its
    first row with a non-zero constant term, and row col*m + shift has its
    pivot at column pivot*m + shift."""
    d = e * m_order
    charts = chart_block(m_order, r, e, p, start, stop)
    rows = flagvar._chart_rows(charts, m_order)
    lead = ((charts[..., 0] != 0).argmax(axis=1) if d
            else np.zeros((stop - start, 0), dtype=np.int64))
    pivots = (lead[:, :, None] * m_order + np.arange(m_order)).reshape(
        stop - start, d)
    return rows, pivots
