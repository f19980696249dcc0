"""The ring form written once: `hmod.ring_to_matrix`/`hmod.matrix_to_ring`
against the per-caller layouts they replace.  The parent code of the
arrow loop of `from_structure_matrices`, the loop of
`to_structure_matrices`, the meshgrid scatter of `flagvar._chart_rows` and
the shift-tensor rebuild of the central coordinates are kept here as
reference oracles; the central coordinates themselves are the ring-chart
fiber oracle of conftest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanquiver import exactlinalg as la
from cartanquiver import flagvar, hmod
from cartanquiver.errors import InternalCheckError

from conftest import CentralCoordinates, make_datum, reference_total_blocks
from reference_linalg import chart_block, chart_count


def reference_arrow_copies(u_mat, ri, rj, mi, mj, fij, fji, gij):
    """The parent arrow loop: one entry list at a time, each column of a
    twisted source degree shifted by the rewriting rule."""
    mats = []
    for g in range(gij):
        a = la.zeros(ri * mi, rj * mj)
        for u in range(rj):
            for tau in range(mj):
                shift_steps, t = divmod(tau, fij)
                col = (u * gij + g) * fij + t
                target_shift = shift_steps * fji
                if target_shift >= mi:
                    continue
                for srow in range(ri):
                    coeffs = u_mat[srow, col]
                    hi = mi - target_shift
                    a[srow * mi + target_shift:srow * mi + mi,
                      u * mj + tau] = coeffs[:hi]
        mats.append(a)
    return mats


def reference_to_structure(m):
    """The parent loop of to_structure_matrices on a standard-form module."""
    r = hmod.rank_vector(m)
    out = {}
    for (i, j), mats in m.arrows.items():
        mi, mj = m.loop_order(i), m.loop_order(j)
        fij = m.datum.f(i, j)
        gij = m.datum.g(i, j)
        u_mat = np.zeros((r[i], abs(m.datum.c[i][j]) * r[j], mi),
                         dtype=np.int64)
        for g, a in enumerate(mats):
            for u in range(r[j]):
                for t in range(fij):
                    col = (u * gij + g) * fij + t
                    column = a[:, u * mj + t]
                    for srow in range(r[i]):
                        u_mat[srow, col] = column[srow * mi:(srow + 1) * mi]
        out[(i, j)] = u_mat
    return out


def reference_chart_rows(charts, m_order):
    """The parent meshgrid scatter of a stack of ring matrices into rows."""
    n, r, e, _ = charts.shape
    col, shift, s, deg = (g.ravel() for g in np.meshgrid(
        np.arange(e), np.arange(m_order), np.arange(r), np.arange(m_order),
        indexing="ij"))
    keep = deg + shift < m_order
    col, shift, s, deg = col[keep], shift[keep], s[keep], deg[keep]
    rows = np.zeros((n, e * m_order, r * m_order), dtype=np.int64)
    rows[:, col * m_order + shift, s * m_order + deg + shift] = \
        charts[:, s, col, deg]
    return rows


def reference_shift_tensor(k):
    """(k, k*k) 0/1 matrix whose row tau, read as a k x k matrix [a, b],
    has its ones where a == b + tau."""
    tau, a, b = np.ogrid[:k, :k, :k]
    return (a == b + tau).astype(np.int64).reshape(k, k * k)


def reference_operator_to_ring(coords, ops):
    """The parent stacked conversion: generator columns read off, every
    operator rebuilt through the shift tensor and compared."""
    p, m, k = coords.p, coords.m, coords.k
    conj = ((coords.basis_inv @ (ops % p)) % p @ coords.basis) % p
    lead = conj.shape[:-2]
    ring = np.swapaxes(conj[..., ::k].reshape(lead + (m, k, m)), -1, -2)
    rebuilt = (ring @ reference_shift_tensor(k)).reshape(lead + (m, m, k, k))
    rebuilt = np.swapaxes(rebuilt, -3, -2).reshape(conj.shape)
    if ((rebuilt - conj) % p).any():
        raise InternalCheckError(
            "operator does not commute with the central nilpotent")
    return ring


def reference_ring_columns_to_rows(coords, ring_mat):
    k = coords.k
    z = ring_mat.shape[1]
    vecs = (ring_mat @ reference_shift_tensor(k)).reshape(coords.m, z, k, k)
    vecs = vecs.transpose(1, 3, 0, 2).reshape(z * k, coords.dim)
    return (vecs @ coords.basis.T) % coords.p


# Cartan data with f_ij in {1, 2, 3} in both orientations and g_ij = 2
DATA = [
    make_datum([[2, -1], [-1, 2]], [1, 1], [(0, 1)]),
    make_datum([[2, -2], [-2, 2]], [1, 1], [(0, 1)]),
    make_datum([[2, -1], [-2, 2]], [2, 1], [(0, 1)]),
    make_datum([[2, -1], [-2, 2]], [2, 1], [(1, 0)]),
    make_datum([[2, -3], [-1, 2]], [1, 3], [(0, 1)]),
    make_datum([[2, -3], [-1, 2]], [1, 3], [(1, 0)]),
    make_datum([[2, -2], [-4, 2]], [2, 1], [(0, 1)]),
    make_datum([[2, -2], [-4, 2]], [2, 1], [(1, 0)]),
    make_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1],
               [(0, 1), (2, 1)]),
]


def test_data_cover_twists_and_copies():
    twists = {(d.f(i, j), d.f(j, i)) for d in DATA
              for i, j in d.oriented_pairs()}
    assert {(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)} <= twists
    assert any(d.g(i, j) == 2 and d.f(i, j) != d.f(j, i)
               for d in DATA for i, j in d.oriented_pairs())


@st.composite
def structure_points(draw):
    datum = draw(st.sampled_from(DATA))
    k = draw(st.integers(1, 3))
    p = draw(st.sampled_from([2, 3]))
    r = tuple(draw(st.integers(0, 2)) for _ in range(datum.n))
    seed = draw(st.integers(0, 2 ** 16))
    return hmod.random_structure(datum, k, p, r, seed=seed)


@settings(max_examples=150, deadline=None)
@given(structure_points())
def test_structure_round_trip_matches_reference(s):
    m = hmod.from_structure_matrices(s)
    datum, k = s.datum, s.k
    for (i, j), u_mat in s.mats.items():
        want = reference_arrow_copies(
            u_mat, s.rank[i], s.rank[j], k * datum.d[i], k * datum.d[j],
            datum.f(i, j), datum.f(j, i), datum.g(i, j))
        got = m.arrows[(i, j)]
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    back = hmod.to_structure_matrices(m)
    ref = reference_to_structure(m)
    assert set(back.mats) == set(ref) == set(s.mats)
    for key in ref:
        assert back.mats[key].shape == ref[key].shape
        assert np.array_equal(back.mats[key], ref[key])
        assert np.array_equal(back.mats[key], s.mats[key])


@st.composite
def ring_stacks(draw):
    """Ring matrices with any twists, including shapes where the last twist
    step runs past the target degree, zero ranks and leading axes."""
    mi = draw(st.integers(1, 4))
    mj = draw(st.integers(1, 4))
    fij = draw(st.integers(1, 3))
    fji = draw(st.integers(1, 3))
    ri = draw(st.integers(0, 2))
    rj = draw(st.integers(0, 2))
    lead = tuple(draw(st.lists(st.integers(0, 2), max_size=2)))
    seed = draw(st.integers(0, 2 ** 16))
    ring = np.random.default_rng(seed).integers(
        0, 3, size=lead + (ri, rj * fij, mi))
    return ring, mi, mj, fij, fji


@settings(max_examples=200, deadline=None)
@given(ring_stacks())
def test_ring_to_matrix_matches_reference(case):
    ring, mi, mj, fij, fji = case
    ri, rj = ring.shape[-3], ring.shape[-2] // fij
    mats = hmod.ring_to_matrix(ring, mi, mj, fij, fji)
    assert mats.shape == ring.shape[:-3] + (ri * mi, rj * mj)
    for idx in np.ndindex(ring.shape[:-3]):
        want, = reference_arrow_copies(ring[idx], ri, rj, mi, mj, fij, fji,
                                       1)
        assert np.array_equal(mats[idx], want)


@settings(max_examples=200, deadline=None)
@given(ring_stacks())
def test_matrix_to_ring_inverts_ring_to_matrix(case):
    ring, mi, mj, fij, fji = case
    if fij > mj:
        # columns eps_j^t g_u with t >= m_j do not exist
        return
    mats = hmod.ring_to_matrix(ring, mi, mj, fij, fji)
    back = hmod.matrix_to_ring(mats, mi, mj, fij)
    assert back.shape == ring.shape
    assert np.array_equal(back, ring)


@pytest.mark.parametrize("lead", [(), (3,), (2, 0)])
@pytest.mark.parametrize("fji", [1, 2])
def test_order_one_ring_is_a_fresh_matrix(lead, fji):
    """At mi = mj = fij = 1 the ring matrices are the matrices themselves,
    also for the reversed views the Hom solver hands in, and the result
    never shares memory with the input."""
    base = np.random.default_rng(len(lead)).integers(0, 5,
                                                      size=lead + (2, 3, 1))
    for ring in (base, base[..., ::-1], base.swapaxes(-3, -2)):
        mats = hmod.ring_to_matrix(ring, 1, 1, 1, fji)
        assert mats.dtype == np.int64
        assert np.array_equal(mats, ring[..., 0])
        assert not np.shares_memory(mats, ring)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(1, 4), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 2 ** 16))
def test_chart_rows_match_meshgrid_scatter(n, m_order, r, e, seed):
    charts = np.random.default_rng(seed).integers(
        0, 5, size=(n, r, e, m_order))
    got = flagvar._chart_rows(charts, m_order)
    assert np.array_equal(got, reference_chart_rows(charts, m_order))


@pytest.mark.parametrize("key", [(2, 2, 1, 3), (3, 3, 2, 2), (4, 2, 1, 2),
                                 (1, 3, 0, 2)])
def test_chart_rows_match_on_charts(key):
    charts = chart_block(*key, 0, chart_count(*key))
    assert np.array_equal(flagvar._chart_rows(charts, key[0]),
                          reference_chart_rows(charts, key[0]))


def _coords(datum, k, p, r, seed):
    m = hmod.random_locally_free(datum, k, p, r, seed=seed)
    offsets, total = reference_total_blocks([m, m])
    blocks = hmod.epsilon_blocks(m)
    eps_total = la.zeros(total, total)
    for (t, i), off in offsets.items():
        eps_total[off:off + m.dims[i], off:off + m.dims[i]] = blocks[i]
    return CentralCoordinates(eps_total, k, p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DATA[:4]), st.integers(1, 3), st.sampled_from([2, 3]),
       st.integers(0, 2 ** 16), st.lists(st.integers(0, 3), max_size=2))
def test_central_coordinates_match_reference(datum, k, p, seed, lead):
    coords = _coords(datum, k, p, (1,) * datum.n, seed)
    rng = np.random.default_rng(seed)
    ring = rng.integers(0, p, size=tuple(lead) + (coords.m, coords.m, k))
    # operators that commute with eps, in ambient coordinates
    ops = (coords.basis @ hmod.ring_to_matrix(ring, k, k)
           @ coords.basis_inv) % p
    got = coords.operator_to_ring(ops)
    assert np.array_equal(got, ring)
    assert np.array_equal(got, reference_operator_to_ring(coords, ops))
    columns = rng.integers(0, p, size=(coords.m, 2, k))
    assert np.array_equal(coords.ring_columns_to_rows(columns),
                          reference_ring_columns_to_rows(coords, columns))


@pytest.mark.parametrize("k", [2, 3])
def test_operator_to_ring_rejects_non_commuting(a2, k):
    coords = _coords(a2, k, 3, (1, 1), 5)
    # fixes the generators and kills their eps-images
    kill = coords.basis @ np.diag(
        [1 if c % k == 0 else 0 for c in range(coords.dim)]
    ) @ coords.basis_inv % 3
    for t in range(3):
        bad = la.identity(coords.dim)[None].repeat(3, axis=0)
        bad[t] = kill
        with pytest.raises(InternalCheckError, match="commute"):
            reference_operator_to_ring(coords, bad)
        with pytest.raises(InternalCheckError, match="commute"):
            coords.operator_to_ring(bad)
