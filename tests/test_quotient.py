"""The one quotient construction (`hmod.quotient`, `Quotient.induced`) and
the generator sweep (`hmod.free_basis`) against the per-caller assemblies
they replace: the reduction functor, the mod-eps shadow of the fiber
cross-check and the sweep of `normalize`, kept here as reference oracles."""

import itertools

import numpy as np
import pytest

from cartanquiver import exactlinalg as la
from cartanquiver import flagvar, hmod, homext, reduction
from cartanquiver.errors import (
    InternalCheckError,
    NotInvariant,
    NotLocallyFree,
)
from cartanquiver.exactlinalg import Subspace

from conftest import (
    CentralCoordinates,
    n_module,
    reference_flag_tensor_modules,
    reference_mod_epsilon_tensor,
)
from reference_linalg import quotient_map


def reference_reduce(m):
    """M / eps^(k-1) M assembled inline: (module, projections, sections,
    subspaces)."""
    p = m.p
    subs = []
    for i in range(m.n):
        power = la.matpow(m.eps[i], (m.k - 1) * m.datum.d[i], p)
        subs.append(Subspace.from_rows(power.T, m.dims[i], p))
    qmaps = [quotient_map(m.dims[i], subs[i]) for i in range(m.n)]
    projs = tuple(q for q, _ in qmaps)
    sects = tuple(s for _, s in qmaps)
    eps = [(projs[i] @ m.eps[i] @ sects[i]) % p for i in range(m.n)]
    arrows = {key: [(projs[key[0]] @ a @ sects[key[1]]) % p for a in mats]
              for key, mats in m.arrows.items()}
    module = hmod.make_module(m.datum, m.k - 1, p, eps, arrows)
    return module, projs, sects, tuple(subs)


def reference_mod_epsilon(mod):
    """The level-1 shadow M / eps M assembled inline: (module, projections,
    sections, subspaces)."""
    p = mod.p
    blocks = hmod.epsilon_blocks(mod)
    subs = [Subspace.from_rows(blocks[i].T, mod.dims[i], p)
            for i in range(mod.n)]
    qmaps = [quotient_map(mod.dims[i], subs[i]) for i in range(mod.n)]
    eps = [(qmaps[i][0] @ mod.eps[i] @ qmaps[i][1]) % p
           for i in range(mod.n)]
    arrows = {key: [(qmaps[key[0]][0] @ a @ qmaps[key[1]][1]) % p
                    for a in mats]
              for key, mats in mod.arrows.items()}
    out = hmod.make_module(mod.datum, 1, p, eps, arrows)
    return (out, tuple(q for q, _ in qmaps), tuple(s for _, s in qmaps),
            tuple(subs))


def inline_mod_epsilon_tensor(x):
    reduced = [reference_mod_epsilon(slot) for slot in x.slots]
    p = x.slots[0].p
    connectors = tuple(
        tuple((reduced[t + 1][1][i] @ mu[i] @ reduced[t][2][i]) % p
              for i in range(len(mu)))
        for t, mu in enumerate(x.connectors))
    return tuple(r[0] for r in reduced), connectors


def reference_free_sweep(nil, order, p):
    """One generator at a time: for each coordinate off the pivots of the
    image, the columns v, nil v, ..., nil^(order-1) v."""
    dim = nil.shape[0]
    if dim == 0:
        return la.identity(0)
    img = Subspace.from_rows(nil.T, dim, p)
    cols = []
    for s in [c for c in range(dim) if c not in img.pivots]:
        v = la.zeros(dim, 1)
        v[s, 0] = 1
        for _ in range(order):
            cols.append(v[:, 0].copy())
            v = (nil @ v) % p
    return np.stack(cols, axis=1)


# a three-step flag type for each rank vector
SEQS = {(2, 1): [(1, 0), (1, 0), (0, 1)], (1, 2): [(0, 1), (1, 0), (0, 1)],
        (1, 1): [(0, 1), (0, 0), (1, 0)],
        (1, 2, 1): [(1, 0, 0), (0, 1, 0), (0, 1, 1)]}


def _three_step_flags(m, count):
    seq = SEQS[tuple(hmod.rank_vector(m))]
    return list(itertools.islice(flagvar.iter_flags(m, seq), count))


def _same_arrays(xs, ys):
    return len(xs) == len(ys) and all(
        np.array_equal(x, y) for x, y in zip(xs, ys))


def _projects_like(quotient, projs):
    """The quotient coordinates of the quotient's subspaces are the
    reference projections, column by column."""
    return _same_arrays([u.quotient_coords(la.identity(u.ambient))
                         for u in quotient.subspaces], projs)


class TestAgainstReferences:
    def test_reduce(self, modules):
        checked = 0
        for m in modules:
            if m.k < 2:
                continue
            red = reduction.reduce(m)
            module, projs, _, subs = reference_reduce(m)
            assert isinstance(red, hmod.Quotient)
            assert hmod.modules_equal(red.module, module)
            assert red.module.standard_form or not m.standard_form
            assert red.subspaces == subs
            assert _projects_like(red, projs)
            checked += 1
        assert checked == 32

    def test_mod_epsilon(self, modules):
        for m in modules:
            blocks = hmod.epsilon_blocks(m)
            q = hmod.quotient(m, [la.image(b, m.p) for b in blocks], 1)
            module, projs, _, subs = reference_mod_epsilon(m)
            assert hmod.modules_equal(q.module, module)
            assert q.subspaces == subs
            assert _projects_like(q, projs)

    def test_mod_epsilon_tensor(self, modules):
        tensors = []
        for m in modules:
            tensors.append(flagvar.TensorModule(
                (m,) * 2, (homext.identity_hom(m),)))
            for flag in _three_step_flags(m, 2):
                tensors += reference_flag_tensor_modules(m, flag)
        assert len(tensors) > 3 * len(modules)
        for x in tensors:
            got = reference_mod_epsilon_tensor(x)
            slots, connectors = inline_mod_epsilon_tensor(x)
            assert all(hmod.modules_equal(a, b)
                       for a, b in zip(got.slots, slots))
            assert len(got.connectors) == len(connectors)
            for mine, want in zip(got.connectors, connectors):
                assert _same_arrays(mine, want)

    def test_quotient_chain_connectors(self, modules):
        """The quotient connectors of a flag, the quotient blocks of the
        identity kept by its check and those of the reference chain, are
        proj_(t+1) @ sect_t."""
        checked = 0
        for m in modules:
            for flag in _three_step_flags(m, 2):
                _, kept = flag._check()
                _, y = reference_flag_tensor_modules(m, flag)
                qmaps = [[quotient_map(m.dims[i], layer[i])
                          for i in range(m.n)] for layer in flag.layers]
                for t, conn in enumerate(y.connectors):
                    want = [(qmaps[t + 1][i][0] @ qmaps[t][i][1]) % m.p
                            for i in range(m.n)]
                    assert _same_arrays(conn, want)
                    assert _same_arrays([b[1] for b in kept[t]], want)
                    checked += 1
        assert checked > len(modules)

    def test_free_basis_in_normalize(self, modules):
        for m in modules:
            _, ts = hmod.normalize(m)
            for i in range(m.n):
                want = reference_free_sweep(m.eps[i], m.loop_order(i), m.p)
                assert np.array_equal(ts[i], want)

    def test_free_basis_in_central_coordinates(self, modules):
        for m in modules:
            blocks = hmod.epsilon_blocks(m)
            total = sum(m.dims)
            eps_total = la.zeros(total, total)
            off = 0
            for i, d in enumerate(m.dims):
                eps_total[off:off + d, off:off + d] = blocks[i]
                off += d
            coords = CentralCoordinates(eps_total, m.k, m.p)
            want = reference_free_sweep(eps_total, m.k, m.p)
            assert np.array_equal(coords.basis, want)


class TestChecks:
    def test_quotient_refuses_non_invariant(self, a2):
        m = n_module(a2, 1, 2)
        # the arrow sends the second generator at vertex 2 to the first
        # generator at vertex 1, which is not in span((0, 1))
        u = (Subspace.from_rows([[0, 1]], 2, 2),
             Subspace.from_rows([[0, 1]], 2, 2))
        with pytest.raises(NotInvariant):
            hmod.quotient(m, u)
        rng = np.random.default_rng(17)
        refused = 0
        for _ in range(20):
            m = hmod.random_locally_free(a2, 2, 3, (1, 1), seed=refused)
            u = [Subspace.from_rows(rng.integers(0, 3, size=(1, d)), d, 3)
                 for d in m.dims]
            if all(u[i].contains_rows((mat @ u[j].basis.T).T)
                   for _, mat, i, j in m.maps_with_labels()):
                continue
            with pytest.raises(NotInvariant):
                hmod.quotient(m, u)
            refused += 1
        assert refused

    def test_induced_refuses_map_that_does_not_descend(self, a2):
        m = n_module(a2, 2, 3)
        red = reduction.reduce(m)
        ident = homext.identity_hom(m)
        assert _same_arrays(red.induced(red, ident),
                            homext.identity_hom(red.module))
        # swapping the two Jordan blocks' coordinates at vertex 1 moves
        # eps M off itself
        swap = list(ident)
        d = m.dims[0]
        swap[0] = la.identity(d)[:, [1, 0] + list(range(2, d))]
        with pytest.raises(InternalCheckError, match="induced"):
            red.induced(red, swap)

    def test_reduce_hom_refuses_non_descending_map(self, a2, monkeypatch):
        m = n_module(a2, 2, 3)
        swap = [la.identity(d) for d in m.dims]
        swap[0] = swap[0][:, [1, 0] + list(range(2, m.dims[0]))]
        monkeypatch.setattr(homext, "check_homomorphism",
                            lambda m, n, f: tuple(f))
        with pytest.raises(InternalCheckError, match="induced"):
            reduction.reduce_hom(m, m, swap)

    def test_free_basis_refuses_non_free(self):
        # one Jordan block of size 3 and one of size 1: two generators, but
        # their two-step sweep spans only three dimensions
        nil = la.zeros(4, 4)
        nil[1, 0] = nil[2, 1] = 1
        with pytest.raises(NotLocallyFree):
            hmod.free_basis(nil, 2, 5)
        # blocks of sizes 2 and 1: three dimensions, two generators
        with pytest.raises(NotLocallyFree):
            hmod.free_basis(nil[1:, 1:], 2, 5)
        free = hmod.free_basis(nil[:3, :3], 3, 5)
        assert np.array_equal(free, la.identity(3))
