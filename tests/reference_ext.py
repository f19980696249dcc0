"""An oracle for dim Ext^1(M, N) on plain F_p matrices, which uses neither
the library's Hom solver nor the Euler form.

An extension 0 -> N -> E -> M -> 0 has, in a basis of E adapted to N, the
maps E_x = [[N_x, h_x], [0, M_x]] for every loop and arrow x: j -> i,
with h_x: M_j -> N_i.  E is a module exactly when the upper-right blocks
of its (H1) and (H2) vanish; with N and M modules these blocks are linear
in h, so the cocycles Z^1(M, N) are the kernel of the matrix whose
columns are the blocks at the unit cocycles (a single entry of a single
h_x equal to 1).  Two cocycles give equivalent extensions when they
differ by a coboundary, the change of basis [[1, g], [0, 1]], which adds
N_x g_j - g_i M_x to h_x: B^1 is the image of g -> (N_x g_j - g_i M_x)_x,
g_v: M_v -> N_v.  So dim Ext^1(M, N) = dim Z^1 - rank B^1.  The same
map's kernel is Hom(M, N): the g with N_x g_j = g_i M_x for every x.
"""

import numpy as np

from cartanquiver import exactlinalg as la


def _power(x: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(x.shape[0], dtype=np.int64)
    for _ in range(e):
        out = (out @ x) % p
    return out


def _maps(m, n):
    """(M_x, N_x, i, j) for each loop and arrow x: j -> i."""
    return [(x, y, i, j) for (_, x, i, j), (_, y, _, _)
            in zip(m.maps_with_labels(), n.maps_with_labels())]


def _relation_blocks(m, n, h) -> np.ndarray:
    """The upper-right blocks of (H1) and (H2) of the extension with
    cocycle h (one matrix M_j -> N_i per map), as one vector."""
    p, datum = m.p, m.datum
    ext = [np.block([[y, hx], [np.zeros((x.shape[0], y.shape[1]),
                                        dtype=np.int64), x]])
           for (x, y, _, _), hx in zip(_maps(m, n), h)]
    out = []
    for i in range(m.n):                                    # (H1)
        out.append(_power(ext[i], m.loop_order(i), p)[:n.dims[i],
                                                      n.dims[i]:])
    for (_, _, i, j), a in zip(_maps(m, n)[m.n:], ext[m.n:]):   # (H2)
        rel = (_power(ext[i], datum.f(j, i), p) @ a
               - a @ _power(ext[j], datum.f(i, j), p)) % p
        out.append(rel[:n.dims[i], n.dims[j]:])
    return np.concatenate([b.ravel() for b in out])


def ext1_dim(m, n) -> int:
    """dim Z^1(M, N) - rank B^1(M, N) over F_p."""
    p = m.p
    shapes = [(n.dims[i], m.dims[j]) for _, _, i, j in _maps(m, n)]
    sizes = [a * b for a, b in shapes]
    offsets = np.cumsum([0] + sizes)
    unknowns = int(offsets[-1])
    columns = []
    for t in range(unknowns):
        unit = np.zeros(unknowns, dtype=np.int64)
        unit[t] = 1
        h = [unit[lo:hi].reshape(shape) for lo, hi, shape
             in zip(offsets, offsets[1:], shapes)]
        columns.append(_relation_blocks(m, n, h))
    cocycles = (np.stack(columns, axis=1) if columns
                else np.zeros((0, 0), dtype=np.int64))
    z1 = unknowns - la.rank(cocycles, p)
    return z1 - la.rank(_coboundaries(m, n), p)


def hom_dim(m, n) -> int:
    """dim Hom(M, N): the kernel of g -> (N_x g_j - g_i M_x)_x."""
    unknowns = sum(a * b for a, b in zip(n.dims, m.dims))
    return unknowns - la.rank(_coboundaries(m, n), m.p)


def _coboundaries(m, n) -> np.ndarray:
    """The matrix of g -> (N_x g_j - g_i M_x)_x, one column per entry of
    one g_v, and no column when there is no g."""
    p = m.p
    images = []
    for v in range(m.n):
        for s in range(n.dims[v] * m.dims[v]):
            g = np.zeros((n.dims[v], m.dims[v]), dtype=np.int64)
            g.flat[s] = 1
            images.append(np.concatenate([
                ((y @ g if j == v else 0) - (g @ x if i == v else 0)
                 + np.zeros((n.dims[i], m.dims[j]), dtype=np.int64)
                 ).ravel() % p for x, y, i, j in _maps(m, n)]))
    return (np.stack(images, axis=1) if images
            else np.zeros((0, 0), dtype=np.int64))
