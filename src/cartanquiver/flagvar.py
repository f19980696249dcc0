"""Flag varieties of locally free submodules: enumeration, point counts,
tangent spaces, and the fibers of the reduction map between levels.

Enumeration works per vertex first: the free rank-e submodules of a free
module over F_p[x]/(x^m) are generated directly from ring-echelon charts
(pivot rows carry the identity, rows between pivots are constrained to
higher x-degree), which hits every eps-invariant free-restriction subspace
exactly once.  The charts of a vertex are split into blocks; one
backtracking search, which iterates or counts, tests a block of candidates
at a time for arrow closure across vertices, and builds each block (one
stacked array of charts, reduced by one batched elimination) when it first
reaches it.  Built blocks of keys up to a size limit are cached, so a
search that stops early builds only the blocks it read.  A search refuses
to start, with BudgetExceeded, when any vertex has more than
VERTEX_CANDIDATE_BUDGET candidates; a count with no active arrow is a
closed-form product and is never refused.  Flags of
length l are translated into single submodules of the repetitive module
over the tensor algebra with the path algebra of a linear quiver on l-1
vertices; that translation also provides tangent spaces (one Hom solve)
and the affine linear system cutting out the fiber of the reduction map
over a fixed lower-level flag.  One flag check, on the block pass of a
split of the module along each layer (`hmod._split_blocks`), tests
invariance, freeness and nesting; its blocks build the slot modules and
connectors of the tangent computation.  Each flag object is checked once:
a flag that cannot change keeps the blocks of its check as long as it
lives, and its tangent space, its reduction and the fiber over it reuse
them; a flag that can change is checked on every call.  The fiber
dimension is checked against the tangent dimension at the image of that
flag in the level-1 shadow of the reduction.  The reduction of a module,
its shadow and the part of the fiber system which depends only on the
module are computed once per module and kept as long as the module lives.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import exactlinalg as la
from . import hmod, homext
from . import reduction
from .cartan import CartanDatum, RankVector, flag_dimension
from .errors import (
    BudgetExceeded,
    FlagNotInReduction,
    InternalCheckError,
    KTooSmall,
    LengthMismatch,
    NotEnoughPrimes,
    NotLocallyFree,
    RankTooLarge,
    ShapeMismatch,
    ValidationError,
)
from .exactlinalg import Subspace
from .hmod import HModule

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13)
# read by `_check_budgets` at each call, not bound as a default
VERTEX_CANDIDATE_BUDGET = 10 ** 7


# --- free submodules of one truncated polynomial column ----------------------

def _chart_patterns(m_order: int, r: int, e: int, p: int):
    """Per pivot pattern, in chart order: (pivots, slots, charts).  Row q off
    the pivots has a free entry in every column, of degree >= 1 in the
    columns whose pivot lies below q.  A chart's index within its pattern,
    written in base p, lists these free coefficients (row, col, degree) as
    `slots` orders them, least significant first."""
    if e < 0 or e > r:
        return []
    out = []
    for pivots in itertools.combinations(range(r), e):
        free = [(q, col, 0 if pivots[col] < q else 1)
                for q in range(r) if q not in pivots for col in range(e)]
        slots = [(q, col, t) for q, col, mind in reversed(free)
                 for t in range(mind, m_order)]
        out.append((pivots, slots, p ** len(slots)))
    return out


def chart_count(m_order: int, r: int, e: int, p: int) -> int:
    """Number of free rank-e submodules of a free rank-r column."""
    return sum(size for _, _, size in _chart_patterns(m_order, r, e, p))


def _chart_block(m_order: int, r: int, e: int, p: int, start: int,
                  stop: int) -> np.ndarray:
    """Charts start, ..., stop - 1 (in chart order) as ring matrices, one
    (r, e, m_order) coefficient array per chart."""
    out = np.zeros((stop - start, r, e, m_order), dtype=np.int64)
    offset = 0
    for pivots, slots, size in _chart_patterns(m_order, r, e, p):
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


def _chart_rows(charts: np.ndarray, m_order: int) -> np.ndarray:
    """Row matrices of a stack of ring matrices: row col*m + shift is
    eps^shift times ring column col, in generator-major coordinates."""
    return np.swapaxes(hmod.ring_to_matrix(charts, m_order, m_order), -1, -2)


# --- per-vertex candidate tables ----------------------------------------------

_CANDIDATE_CACHE_LIMIT = 20000   # charts of the largest key kept as a table
_CANDIDATE_CACHE_SIZE = 256      # keys kept; a `count` bench pass uses 116
_BLOCK_CELLS = 1 << 17           # int64 cells of row matrices per block


def _block_size(m_order: int, r: int, e: int) -> int:
    """Charts per block: about _BLOCK_CELLS cells of row matrices."""
    return max(1, _BLOCK_CELLS // max(1, e * r * m_order * m_order))


@dataclass(frozen=True, eq=False)
class _CandidateTable:
    """A run of consecutive candidate submodules of one (m_order, r, e, p)
    key, in chart order: read-only RREF bases (N, e*m, r*m) and their pivot
    columns (N, e*m)."""

    p: int
    ambient: int
    basis: np.ndarray
    pivots: np.ndarray

    def __len__(self) -> int:
        return self.basis.shape[0]

    def subspace(self, t: int) -> Subspace:
        """Candidate t as a Subspace viewing the table."""
        return Subspace(self.p, self.ambient, self.basis[t],
                        tuple(self.pivots[t].tolist()))


def _new_table(m_order: int, r: int, e: int, p: int, start: int,
               stop: int) -> _CandidateTable:
    """Charts start, ..., stop - 1 as a table: each block of charts is
    reduced by one batched elimination into preallocated arrays, and every
    chart must have full rank e*m (it spans a free submodule)."""
    d = e * m_order
    basis = np.empty((stop - start, d, r * m_order), dtype=np.int64)
    pivots = np.empty((stop - start, d), dtype=np.int64)
    step = _block_size(m_order, r, e)
    for lo in range(start, stop, step):
        hi = min(stop, lo + step)
        rows = _chart_rows(_chart_block(m_order, r, e, p, lo, hi), m_order)
        reduced, ranks, piv = la.rref_stack(rows, p)
        if (ranks != d).any():
            raise InternalCheckError(
                "a ring-echelon chart does not span a free submodule")
        basis[lo - start:hi - start] = reduced
        pivots[lo - start:hi - start] = piv
    basis.setflags(write=False)
    pivots.setflags(write=False)
    return _CandidateTable(p, r * m_order, basis, pivots)


@functools.lru_cache(maxsize=_CANDIDATE_CACHE_SIZE)
def _vertex_candidates(m_order: int, r: int, e: int, p: int
                       ) -> list[Optional[_CandidateTable]]:
    """The blocks of one key, None until `_candidate_blocks` first reaches
    them; filled in place, so every search over the key shares them."""
    count = chart_count(m_order, r, e, p)
    return [None] * -(-count // _block_size(m_order, r, e))


def _candidate_blocks(m_order: int, r: int, e: int, p: int
                      ) -> Iterator[_CandidateTable]:
    """The candidates of one key in chart order, a block at a time, each
    built when it is first reached: kept in the key's cached block list,
    or (over _CANDIDATE_CACHE_LIMIT charts) never kept."""
    count = chart_count(m_order, r, e, p)
    step = _block_size(m_order, r, e)
    blocks = (_vertex_candidates(m_order, r, e, p)
              if count <= _CANDIDATE_CACHE_LIMIT else None)
    for b, start in enumerate(range(0, count, step)):
        block = blocks[b] if blocks is not None else None
        if block is None:
            block = _new_table(m_order, r, e, p, start,
                               min(count, start + step))
            if blocks is not None:
                blocks[b] = block
        yield block


# --- submodule and flag enumeration ------------------------------------------

def _active_arrows(m: HModule, rank: RankVector, e: RankVector):
    """Arrows whose closure condition actually constrains the choice: the
    image of a zero layer is zero, and a full layer contains everything."""
    active = []
    for (i, j), mats in m.arrows.items():
        if e[j] == 0 or e[i] == rank[i]:
            continue
        for a in mats:
            if a.any():
                active.append((i, j, a))
    return active


def _check_budgets(m: HModule, rank, e):
    for i in range(m.n):
        count = chart_count(m.loop_order(i), rank[i], e[i], m.p)
        if count > VERTEX_CANDIDATE_BUDGET:
            raise BudgetExceeded(
                f"vertex {i + 1} has {count} candidate submodules, above "
                f"flagvar.VERTEX_CANDIDATE_BUDGET = {VERTEX_CANDIDATE_BUDGET}")


def _reducer(u: Subspace) -> np.ndarray:
    """Matrix R with v @ R = v - v[:, pivots] @ basis mod p: the residue of
    row vectors modulo u, as one product."""
    out = la.identity(u.ambient)
    rows = list(u.pivots)
    out[rows] = (out[rows] - u.basis) % u.p
    return out


def _closed(block: _CandidateTable, v: int, tests, chosen: dict
            ) -> np.ndarray:
    """Mask of the candidates at vertex v closed under the given arrows to
    chosen vertices, by one residue computation per arrow for the block."""
    p = block.p
    ok = np.ones(len(block), dtype=bool)
    for i, j, a in tests:
        if i == v:
            # image of the chosen U_j against every candidate U_i:
            # img - img[:, P] @ B
            img = (chosen[j].basis @ a.T) % p
            coeff = img[:, block.pivots].transpose(1, 0, 2)
            resid = (img - coeff @ block.basis) % p
        else:
            # image of every candidate U_j against the chosen U_i
            resid = (block.basis @ ((a.T @ _reducer(chosen[i])) % p)) % p
        ok &= ~resid.any(axis=(1, 2))
    return ok


def _closure_search(m: HModule, rank: RankVector, e: RankVector,
                    order: Sequence[int], count: bool):
    """Backtracking over the candidates of the vertices in `order`, a block
    at a time: each block is tested at once against the active arrows to
    the vertices already chosen.  Yields the closed tuples (one subspace per
    vertex of m) in chart order, or with count=True, for each block of the
    last vertex, the number of closed tuples it completes."""
    active = _active_arrows(m, rank, e)
    levels = []
    placed: set[int] = set()
    for v in order:
        placed.add(v)
        tests = [(i, j, a) for i, j, a in active
                 if v in (i, j) and {i, j} <= placed]
        levels.append((v, (m.loop_order(v), rank[v], e[v], m.p), tests))
    chosen: dict[int, Subspace] = {}

    def extend(idx: int):
        v, key, tests = levels[idx]
        last = idx + 1 == len(levels)
        for block in _candidate_blocks(*key):
            ok = _closed(block, v, tests, chosen)
            if last and count:
                yield int(np.count_nonzero(ok))
                continue
            for t in np.flatnonzero(ok):
                chosen[v] = block.subspace(t)
                if last:
                    yield tuple(chosen[u] for u in range(m.n))
                else:
                    yield from extend(idx + 1)
        chosen.pop(v, None)

    yield from extend(0)


def iter_locally_free_submodules(m: HModule, e
                                 ) -> Iterator[tuple[Subspace, ...]]:
    """Stream every tuple of per-vertex free submodules of rank e closed
    under all arrows, exactly once each (charts are disjoint)."""
    yield from _iter_submodules(m, hmod.rank_vector(m), e)


def _image(layer, maps) -> tuple[Subspace, ...]:
    """The images T_i U_i of subspaces U_i under per-vertex maps T_i."""
    return tuple(Subspace.from_rows((u.basis @ t.T) % u.p, t.shape[0], u.p)
                 for u, t in zip(layer, maps))


def _iter_submodules(m: HModule, rank: RankVector, e
                     ) -> Iterator[tuple[Subspace, ...]]:
    """`iter_locally_free_submodules` for a module of known rank."""
    e = RankVector(e)
    if not (e <= rank):
        raise RankTooLarge(f"requested rank {tuple(e)} exceeds {tuple(rank)}")
    std, ts = (m, None) if m.standard_form else hmod.normalize(m)
    if ts is not None:
        for tup in _iter_submodules(std, rank, e):
            yield _image(tup, ts)
        return
    _check_budgets(m, rank, e)
    yield from _closure_search(m, rank, e, range(m.n), count=False)


def enumerate_locally_free_submodules(m: HModule, e
                                      ) -> list[tuple[Subspace, ...]]:
    return list(iter_locally_free_submodules(m, e))


def count_locally_free_submodules(m: HModule, e) -> int:
    """Grassmannian point count with the unconstrained vertices counted in
    closed form; only vertices touched by an active arrow are enumerated,
    streamed keys first (built once), then by ascending candidate count, so
    the last vertex, tested a block at a time, has the most candidates."""
    return _count_submodules(m, hmod.rank_vector(m), e)


def _count_submodules(m: HModule, rank: RankVector, e) -> int:
    """`count_locally_free_submodules` for a module of known rank."""
    e = RankVector(e)
    if not (e <= rank):
        raise RankTooLarge(f"requested rank {tuple(e)} exceeds {tuple(rank)}")
    std = m if m.standard_form else hmod.normalize(m)[0]
    counts = [chart_count(std.loop_order(i), rank[i], e[i], std.p)
              for i in range(std.n)]
    coupled = {v for (i, j, _) in _active_arrows(std, rank, e)
               for v in (i, j)}
    free_factor = 1
    for i in range(std.n):
        if i not in coupled:
            free_factor *= counts[i]
    if not coupled:
        return free_factor
    _check_budgets(std, rank, e)
    order = sorted(coupled, key=lambda v: (
        counts[v] <= _CANDIDATE_CACHE_LIMIT, counts[v], v))
    return free_factor * sum(_closure_search(std, rank, e, order,
                                             count=True))


@dataclass(frozen=True, eq=False)
class FlagOfSubmodules:
    """A chain of per-vertex subspaces 0 < U_1 < ... < U_{l-1} < M realizing
    a point of the flag variety with subquotient ranks brseq, checked by
    the one flag check `_flag_blocks`.  A flag that cannot change (tuples
    of subspaces with read-only bases, a tuple of tuples as brseq, as
    `iter_flags` and the fibers build them) keeps the blocks of its first
    successful check while it lives; any other flag is checked on every
    call."""

    module: HModule
    brseq: tuple[RankVector, ...]
    layers: tuple[tuple[Subspace, ...], ...]
    _kept: Optional[tuple] = field(default=None, init=False,
                                   compare=False, repr=False)

    @property
    def length(self) -> int:
        return len(self.brseq)

    def validate(self) -> None:
        hmod.rank_vector(self.module)   # raises NotLocallyFree
        self._check()

    def _check(self) -> tuple[list, list]:
        """`validate` for a module known to be locally free, as callers
        that check many flags of one module know: the blocks of
        `_flag_blocks` for this flag's module, kept (read-only) after the
        first check of an immutable flag.  A check that raises keeps
        nothing."""
        if self._kept is not None:
            return self._kept
        blocks = _flag_blocks(self.module, self.brseq, self.layers)
        if self._immutable():
            _freeze_blocks(*blocks)
            object.__setattr__(self, "_kept", blocks)
        return blocks

    def _immutable(self) -> bool:
        """Whether no part of the flag can change: brseq and layers are
        tuples of tuples, and every layer basis is read-only (the module
        is, as `make_module` builds it)."""
        return (isinstance(self.brseq, tuple)
                and all(isinstance(r, tuple) for r in self.brseq)
                and isinstance(self.layers, tuple)
                and all(isinstance(layer, tuple) and all(
                    isinstance(u, Subspace) and not u.basis.flags.writeable
                    for u in layer) for layer in self.layers))

    def to_dict(self) -> dict:
        return {
            "brseq": [list(r) for r in self.brseq],
            "layers": [[layer[i].basis.tolist()
                        for i in range(self.module.n)]
                       for layer in self.layers],
        }


def _flag_blocks(m: HModule, brseq, layers) -> tuple[list, list]:
    """The one flag check: `_check_steps`; per layer the block pass
    `hmod._split_blocks` of every loop and arrow (invariance), and per
    vertex the dimension and freeness (the rank of the loop's sub block);
    then the identity's blocks from each layer to the next, which test
    nesting and are the connectors.  Returns (the block pass per layer,
    the identity blocks per vertex per adjacent pair)."""
    _check_steps(m, brseq, layers)
    own = m.maps_with_labels()
    splits = []
    for t, layer in enumerate(layers):
        maps = [(f"layer {t + 1} not closed under "
                 f"{'loop' if i == j else 'arrow'} {label}", x, i, j)
                for label, x, i, j in own]
        sides, pairs = hmod._split_blocks(m, layer, maps)
        for i in range(m.n):
            order = m.loop_order(i)
            dim = layer[i].dim
            if dim != order * sum(r[i] for r in brseq[:t + 1]):
                raise ShapeMismatch(
                    f"layer {t + 1} has wrong dimension at vertex {i + 1}")
            want = dim - dim // order
            if order > 1 and la.rank(pairs[(i, i)][0][0], m.p) != want:
                raise NotLocallyFree(
                    f"layer {t + 1} not free at vertex {i + 1}")
        splits.append((sides, pairs))
    return splits, [
        [hmod._blocks(f"layers {t + 1} and {t + 2} are not nested: the "
                      f"inclusion at vertex {i + 1}", la.identity(d),
                      src[0][i], tgt[0][i]) for i, d in enumerate(m.dims)]
        for t, (src, tgt) in enumerate(zip(splits, splits[1:]))]


def _freeze_blocks(splits, connectors) -> None:
    """Make every array of a flag check's blocks read-only, so that blocks
    a flag keeps read the same on every later use."""
    for sides, pairs in splits:
        for _, q, s in sides:
            q.setflags(write=False)
            s.setflags(write=False)
        for b in itertools.chain(*pairs.values()):
            b[0].setflags(write=False)
            b[1].setflags(write=False)
    for b in itertools.chain(*connectors):
        b[0].setflags(write=False)
        b[1].setflags(write=False)


def _checked_blocks(m: HModule, flag: FlagOfSubmodules) -> tuple[list, list]:
    """The blocks of the flag check of `flag` as a flag of m: the flag's
    own (kept) check when m is its module, else `_flag_blocks` against
    m."""
    if flag.module is m:
        return flag._check()
    return _flag_blocks(m, flag.brseq, flag.layers)


def _check_steps(m: HModule, brseq, layers) -> None:
    """brseq is a `_rank_seq`, has one more step than there are layers,
    and sums to the rank of m: its dims over the loop orders."""
    _rank_seq(brseq, m.n)
    if len(layers) != len(brseq) - 1:
        raise ShapeMismatch("layer count does not match brseq length")
    if tuple(sum(r[i] for r in brseq) * m.loop_order(i)
             for i in range(m.n)) != m.dims:
        raise ShapeMismatch("brseq does not sum to the ambient rank")


def _rank_seq(brseq, n: int) -> tuple[RankVector, ...]:
    """brseq as a non-empty sequence of rank vectors of length n."""
    seq = tuple(RankVector(r) for r in brseq)
    if not seq:
        raise LengthMismatch("brseq must be non-empty")
    if any(len(r) != n for r in seq):
        raise LengthMismatch(f"brseq needs rank vectors of length {n}")
    return seq


def _checked_seq(m: HModule, brseq):
    """brseq as rank vectors, or None when it does not sum to the rank of
    m."""
    seq = _rank_seq(brseq, m.n)
    rank = hmod.rank_vector(m)
    if tuple(sum(r[i] for r in seq) for i in range(m.n)) != tuple(rank):
        return None
    return seq


def _layer_chains(m: HModule, seq, count: bool):
    """Depth first over the flags of m with subquotient ranks seq (which
    sum to the rank of m): the top proper layer runs over the Grassmannian,
    the rest recurses inside that submodule.  Yields each flag's layers,
    bottom first, or with count=True, numbers of flags that sum to the
    total; a two-step sequence is counted in closed form where it can be."""
    if len(seq) == 1:
        yield 1 if count else []
        return
    top_rank = sum(seq[1:-1], seq[0])
    rank = top_rank + seq[-1]
    if len(seq) == 2 and count:
        yield _count_submodules(m, rank, top_rank)
        return
    for tup in _iter_submodules(m, rank, top_rank):
        if len(seq) == 2:
            yield [tup]
            continue
        inner = hmod.submodule(m, tup)
        incl = [u.basis.T for u in tup]
        for chain in _layer_chains(inner, seq[:-1], count):
            if count:
                yield chain
                continue
            yield [_image(layer, incl) for layer in chain] + [tup]


def iter_flags(m: HModule, brseq) -> Iterator[FlagOfSubmodules]:
    """Stream flags depth first (see `_layer_chains`).  Every yielded flag
    is validated."""
    seq = _checked_seq(m, brseq)
    if seq is None:
        return
    for layers in _layer_chains(m, seq, count=False):
        flag = FlagOfSubmodules(m, seq, tuple(layers))
        flag._check()
        yield flag


def enumerate_flags(m: HModule, brseq) -> list[FlagOfSubmodules]:
    return list(iter_flags(m, brseq))


def point_count(m: HModule, brseq) -> int:
    """Number of flags, by the recursion of `iter_flags`; its innermost
    two-step sequence is counted without enumerating the points."""
    seq = _checked_seq(m, brseq)
    if seq is None:
        return 0
    return sum(_layer_chains(m, seq, count=True))


# --- tensor modules over the linear-quiver extension --------------------------

@dataclass(frozen=True, eq=False)
class TensorModule:
    """A module over the level-k algebra tensored with the path algebra of
    the linear quiver 1 -> 2 -> ... -> (l-1): slot modules plus verified
    connector homomorphisms.  To homext it is a module on the vertices
    (slot t, vertex i), at index t*n + i of `dims`."""

    slots: tuple[HModule, ...]
    connectors: tuple[tuple[np.ndarray, ...], ...]
    dims: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.slots:
            raise ShapeMismatch("tensor module needs at least one slot")
        first = self.slots[0]
        for slot in self.slots[1:]:
            if (slot.datum, slot.k, slot.p) != (first.datum, first.k,
                                                first.p):
                raise ShapeMismatch("slots live over different algebras")
        if len(self.connectors) != len(self.slots) - 1:
            raise ShapeMismatch("need one connector between adjacent slots")
        for t, mu in enumerate(self.connectors):
            homext.check_homomorphism(self.slots[t], self.slots[t + 1], mu)
        object.__setattr__(self, "dims", tuple(
            d for slot in self.slots for d in slot.dims))

    @property
    def p(self) -> int:
        return self.slots[0].p

    def maps_with_labels(self):
        """Each slot's loops and arrows, then the connectors (t, i) ->
        (t+1, i), as (label, matrix, target vertex, source vertex)."""
        n = self.slots[0].n
        out = [(f"{label} in slot {t + 1}", mat, t * n + i, t * n + j)
               for t, slot in enumerate(self.slots)
               for label, mat, i, j in slot.maps_with_labels()]
        out.extend((f"mu_{t + 1}->{t + 2} at vertex {i + 1}", mu[i],
                    (t + 1) * n + i, t * n + i)
                   for t, mu in enumerate(self.connectors) for i in range(n))
        return out


def repetitive_module(m: HModule, l: int) -> TensorModule:
    """(M, ..., M) with identity connectors; l - 1 slots."""
    if l < 2:
        raise LengthMismatch("repetitive module needs l >= 2")
    slots = (m,) * (l - 1)
    connectors = tuple(homext.identity_hom(m) for _ in range(l - 2))
    return TensorModule(slots, connectors)


def hom_tensor(x: TensorModule, y: TensorModule) -> homext.HomBasis:
    """Basis of Hom between tensor modules: one kernel of the slot
    intertwiners and the commuting squares with the connectors, solved and
    re-checked like `homext.hom_space`."""
    if len(x.slots) != len(y.slots):
        raise ShapeMismatch("tensor modules of different length")
    if (x.slots[0].datum, x.slots[0].k, x.slots[0].p) != (
            y.slots[0].datum, y.slots[0].k, y.slots[0].p):
        raise ShapeMismatch("tensor modules over different algebras")
    return homext._hom_basis(x, y)


def _flag_tensor_modules(m: HModule, flag: FlagOfSubmodules
                         ) -> Optional[tuple[TensorModule, TensorModule]]:
    """The embedded chain iota(U) and the quotient chain M^(l)/iota(U),
    built from the blocks of the flag check (`_checked_blocks`), or None
    for a flag without layers.  Raises what the flag check raises."""
    splits, conn = _checked_blocks(m, flag)
    if not splits:
        return None
    sqs = [hmod._split(m, blocks, True, m.k) for blocks in splits]
    return (TensorModule(tuple(sub for sub, _ in sqs),
                         tuple(tuple(b[0] for b in c) for c in conn)),
            TensorModule(tuple(q.module for _, q in sqs),
                         tuple(tuple(b[1] for b in c) for c in conn)))


def tangent_dimension(m: HModule, flag: FlagOfSubmodules) -> int:
    """dim of the tangent space at a flag point, by one exact linear solve
    (never through the Euler-form shortcut).  Raises ValidationError when
    the flag does not fit m or its layers are not a flag."""
    tensors = _flag_tensor_modules(m, flag)
    return hom_tensor(*tensors).dim if tensors else 0


# --- reduction of flags and its fibers ----------------------------------------

def reduce_flag(m: HModule, flag: FlagOfSubmodules) -> FlagOfSubmodules:
    """Image of a flag of m under the projections onto M / eps^(k-1) M.
    Raises ValidationError when the layers are not a flag of m."""
    if m.k < 2:
        raise KTooSmall("flag reduction needs k >= 2")
    data = _reduction_data(m)
    _checked_blocks(m, flag)
    out = _reduced_flag(data.red, flag)
    out._check()
    return out


def _reduced_flag(red: hmod.Quotient,
                  flag: FlagOfSubmodules) -> FlagOfSubmodules:
    """The layers of a flag projected by a reduction; not validated."""
    return FlagOfSubmodules(red.module, flag.brseq, tuple(
        _image(layer, red.projections) for layer in flag.layers))


# ring-coefficient matrices: arrays (..., rows, cols, k) of ascending
# eps-degree, stacked along any leading axes; products and inverses are
# taken of the operator matrices (hmod.ring_to_matrix)

def _rmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    k = a.shape[-1]
    return hmod.matrix_to_ring((hmod.ring_to_matrix(a, k, k)
                                @ hmod.ring_to_matrix(b, k, k)) % p, k, k)


def _rinv(a: np.ndarray, p: int) -> np.ndarray:
    k = a.shape[-1]
    return hmod.matrix_to_ring(la.inv(hmod.ring_to_matrix(a, k, k), p), k, k)


class _CentralCoordinates:
    """Coordinates of a space that is free over F_p[eps]/(eps^k), given the
    nilpotent matrix of eps; converts vectors and eps-commuting operators to
    ring form and back."""

    def __init__(self, eps_total: np.ndarray, k: int, p: int):
        self.k = k
        self.p = p
        self.dim = eps_total.shape[0]
        self.m = self.dim // k
        # column s*k + t is eps^t applied to generator s
        self.basis = hmod.free_basis(eps_total, k, p)
        self.basis_inv = la.inv(self.basis, p)

    def operator_to_ring(self, ops: np.ndarray) -> np.ndarray:
        """Ring matrices (..., m, m, k) of a stack of operators (..., dim,
        dim) commuting with eps: entry [s', s, tau] is the eps^tau
        coefficient of generator s' in the image of generator s.  Every
        operator is rebuilt from its ring matrix and compared."""
        p, k = self.p, self.k
        conj = ((self.basis_inv @ (ops % p)) % p @ self.basis) % p
        ring = hmod.matrix_to_ring(conj, k, k)
        if ((hmod.ring_to_matrix(ring, k, k) - conj) % p).any():
            raise InternalCheckError(
                "operator does not commute with the central nilpotent")
        return ring

    def ring_columns_to_rows(self, ring_mat: np.ndarray) -> np.ndarray:
        """K-row-vectors spanning the column span of a ring matrix: row
        col*k + shift is eps^shift times ring column col."""
        cols = hmod.ring_to_matrix(ring_mat, self.k, self.k)
        return (cols.T @ self.basis.T) % self.p


def _algebra_generators(m: HModule, slots: int) -> np.ndarray:
    """Stack of matrices generating the action on the direct sum of the
    slots of the repetitive chain of m (slot by slot, each one copy of m):
    slot idempotents, then each vertex idempotent, loop and arrow of m on
    every slot, then the identity connectors from each slot into the
    next."""
    ident = la.identity(m.total_dim())
    incl = np.split(ident, np.cumsum(m.dims)[:-1], axis=1)
    one_copy = [incl[i] @ incl[i].T for i in range(m.n)] + [
        incl[i] @ mat @ incl[j].T for _, mat, i, j in m.maps_with_labels()]
    units = la.identity(slots)
    return np.stack(
        [np.kron(np.outer(units[t], units[t]), ident) for t in range(slots)]
        + [np.kron(units, g) for g in one_copy]
        + [np.kron(np.outer(units[t + 1], units[t]), ident)
           for t in range(slots - 1)])


@dataclass(frozen=True, eq=False)
class _ChainData:
    """The part of the lift system of a chain with `slots` layers that
    depends only on the module: the central coordinates of the repetitive
    chain module, the inverse of the reduced central basis, and the ring
    matrices of the algebra generators."""

    coords: _CentralCoordinates
    tbar_inv: np.ndarray
    rings: np.ndarray


@dataclass(frozen=True, eq=False)
class _ReductionData:
    """What the reduction of flags and its fibers need of one module: its
    reduction, the level-1 shadow of the reduction (modulo the central
    nilpotent) and the chain data per slot count, added as fibers first ask
    for it.  Holds no reference to the module, so the memo entry dies with
    it."""

    red: hmod.Quotient
    shadow: hmod.Quotient
    chains: dict = field(default_factory=dict)


# one record per live module; HModule is frozen and hashes by identity
_REDUCTION_DATA: "weakref.WeakKeyDictionary[HModule, _ReductionData]" = \
    weakref.WeakKeyDictionary()


def _reduction_data(m: HModule) -> _ReductionData:
    """The memoized reduction record of m (k >= 2); a build that raises
    stores nothing.  Raises NotLocallyFree unless m and its reduction are
    locally free."""
    data = _REDUCTION_DATA.get(m)
    if data is None:
        hmod.rank_vector(m)
        red = reduction.reduce(m)
        mbar = red.module
        hmod.rank_vector(mbar)
        shadow = hmod.quotient(mbar, [la.image(b, m.p) for b in
                                      hmod.epsilon_blocks(mbar)], 1)
        data = _ReductionData(red, shadow)
        _REDUCTION_DATA[m] = data
    return data


def _chain_data(m: HModule, data: _ReductionData, slots: int) -> _ChainData:
    """The chain data of m for `slots` layers, built on first use."""
    chain = data.chains.get(slots)
    if chain is not None:
        return chain
    p = m.p
    k = m.k
    units = la.identity(slots)
    coords = _CentralCoordinates(
        np.kron(units, la.block_diag(*hmod.epsilon_blocks(m))), k, p)
    # the low-degree central basis, projected to the reduced total space
    rho_total = np.kron(units, la.block_diag(*data.red.projections))
    low = [s * k + t for s in range(coords.m) for t in range(k - 1)]
    tbar = (rho_total @ coords.basis[:, low]) % p
    if la.rank(tbar, p) != tbar.shape[0]:
        raise InternalCheckError("reduced central basis is degenerate")
    tbar_inv = la.inv(tbar, p)
    rings = coords.operator_to_ring(_algebra_generators(m, slots))
    # every later fiber of m reads these arrays
    for a in (coords.basis, coords.basis_inv, tbar_inv, rings):
        a.setflags(write=False)
    chain = _ChainData(coords, tbar_inv, rings)
    data.chains[slots] = chain
    return chain


@dataclass(frozen=True, eq=False)
class _LiftSystem:
    """Lifts of a non-zero base chain to level k: the ring chart of the
    chain over the center of the repetitive chain module, the identity on
    `pivot_rows` and `sbar` (top degree zero) on `other_rows`, and the
    affine system `system @ x == rhs` in the top-degree coefficients of the
    other rows that cuts out the invariant lifts."""

    chain: _ChainData
    sbar: np.ndarray
    pivot_rows: list
    other_rows: list
    system: np.ndarray
    rhs: np.ndarray


def _lift_system(chain: _ChainData, base: FlagOfSubmodules
                 ) -> Optional[_LiftSystem]:
    """The lift system of a base flag with at least two steps over the
    chain data of its module, or None when its chain is zero."""
    coords = chain.coords
    p = coords.p
    k = coords.k
    # the base chain as one subspace of the reduced total space
    base_rows = la.block_diag(*(sub.basis for layer in base.layers
                                for sub in layer))
    z_total = base_rows.shape[0] // (k - 1)
    if z_total == 0:
        return None

    ring_rows = ((base_rows @ chain.tbar_inv.T) % p).reshape(-1, coords.m,
                                                             k - 1)
    # ring generators: the rows whose degree-0 parts are independent of
    # those before them
    _, _, independent = la.rref(ring_rows[:, :, 0].T, p)
    if len(independent) < z_total:
        raise FlagNotInReduction("base chain is not free over the center")
    amat = ring_rows[list(independent[:z_total])].transpose(1, 0, 2)
    _, _, piv = la.rref(amat[:, :, 0].T, p)
    pivot_rows = list(piv)
    other_rows = [q for q in range(coords.m) if q not in pivot_rows]
    amat = _rmul(amat, _rinv(amat[pivot_rows], p), p)
    if not np.array_equal(amat[pivot_rows], hmod.matrix_to_ring(
            la.identity(z_total * (k - 1)), k - 1, k - 1)):
        raise InternalCheckError("chart normalization failed")
    sbar = np.zeros((len(other_rows), z_total, k), dtype=np.int64)
    sbar[:, :, :k - 1] = amat[other_rows]

    # invariance of the lifted chart under every generator at once
    rings = chain.rings
    pm = rings[:, pivot_rows][:, :, pivot_rows]
    qm = rings[:, pivot_rows][:, :, other_rows]
    rm = rings[:, other_rows][:, :, pivot_rows]
    tm = rings[:, other_rows][:, :, other_rows]
    resid = (rm + _rmul(tm, sbar, p) - _rmul(sbar, pm, p)
             - _rmul(sbar, _rmul(qm, sbar, p), p)) % p
    if resid[..., :k - 1].any():
        raise FlagNotInReduction(
            "base chain is not invariant under the algebra action")
    rhs = ((-resid[..., k - 1]) % p).reshape(-1)
    # the top-degree residual of each generator is affine in the unknown
    # X: (tm - s0 qm) X - X (pm + qm s0), row-major vec
    s0 = sbar[:, :, 0]
    left = (tm[..., 0] - s0 @ qm[..., 0]) % p
    right = (pm[..., 0] + qm[..., 0] @ s0) % p
    width = len(other_rows) * z_total
    system = ((la.left_product_matrix(left, z_total)
               - la.right_product_matrix(right, len(other_rows))) % p
              ).reshape(rhs.shape[0], width)
    return _LiftSystem(chain, sbar, pivot_rows, other_rows, system, rhs)


@dataclass(frozen=True, eq=False)
class FiberOfReduction:
    """Fiber of the flag reduction map over a fixed lower-level flag:
    either empty or an affine space, parametrized by a particular solution
    and a kernel basis of the cut-out linear system."""

    base: FlagOfSubmodules
    empty: bool
    dimension: Optional[int]
    expected_dimension: int
    particular: Optional[FlagOfSubmodules] = None
    _builder: Optional[object] = field(default=None, repr=False)
    _kernel: Optional[np.ndarray] = field(default=None, repr=False)

    def flag_at(self, coeffs) -> FlagOfSubmodules:
        """The point of the fiber with the given integer coordinates
        (taken mod p) on the kernel basis."""
        if self.empty:
            raise ValidationError("fiber is empty")
        coeffs = np.asarray(coeffs)
        if coeffs.size and coeffs.dtype.kind not in "iu":
            raise ValidationError(f"fiber coefficients must be an integer "
                                  f"array, got dtype {coeffs.dtype}")
        if coeffs.shape != (self.dimension,):
            raise ShapeMismatch(f"need {self.dimension} coefficients")
        return self._builder((coeffs % self.base.module.p).astype(np.int64))

    def point_count(self) -> int:
        if self.empty:
            return 0
        return self.base.module.p ** self.dimension


def fiber_of_reduction(m: HModule, base: FlagOfSubmodules
                       ) -> FiberOfReduction:
    """Solve for all level-k flags of M reducing to a given level-(k-1) flag.

    The chain is translated into one submodule of the repetitive chain
    module; lifts of its ring-echelon chart are cut out by an affine linear
    system in the top-degree coefficients.  The solution space dimension is
    cross-checked against the tangent dimension at the image of the base
    flag in the level-1 shadow of the reduction.
    """
    if m.k < 2:
        raise KTooSmall("fibers of reduction need k >= 2")
    data = _reduction_data(m)
    red = data.red
    mbar = red.module
    if base.module is not mbar and not hmod.modules_equal(base.module, mbar):
        raise FlagNotInReduction(
            "base flag does not live in the reduction of the module")
    seq = _rank_seq(base.brseq, m.n)
    try:
        base._check()
    except ValidationError as exc:
        raise FlagNotInReduction(f"base flag invalid: {exc}") from exc
    expected = _fiber_expected_dimension(data.shadow, base)
    slots = base.length - 1
    p = m.p
    k = m.k
    lift = _lift_system(_chain_data(m, data, slots), base) if slots else None
    if lift is None:
        zero_layers = tuple(
            tuple(Subspace.zero(m.dims[i], p) for i in range(m.n))
            for _ in range(slots))
        flag = FlagOfSubmodules(m, seq, zero_layers)
        flag._check()
        return FiberOfReduction(base, False, 0, expected, flag,
                                _builder=lambda coeffs: flag,
                                _kernel=la.zeros(0, 0))
    solution = la.solve(lift.system, lift.rhs, p)
    if solution is None:
        return FiberOfReduction(base, True, None, expected)
    particular_vec, kernel = solution
    dimension = kernel.shape[0]
    if dimension != expected:
        raise InternalCheckError(
            f"fiber dimension {dimension} does not match the Hom-space "
            f"cross-check {expected}")

    coords, sbar = lift.chain.coords, lift.sbar
    z_total = sbar.shape[1]
    chart = np.zeros((coords.m, z_total, k), dtype=np.int64)
    chart[lift.pivot_rows] = hmod.matrix_to_ring(la.identity(z_total * k),
                                                 k, k)
    dims = m.dims * slots
    cuts = np.cumsum(dims)[:-1]

    def build(coeffs: np.ndarray) -> FlagOfSubmodules:
        vec = (particular_vec + (coeffs @ kernel if dimension else 0)) % p
        stilde = sbar.copy()
        stilde[:, :, k - 1] = (stilde[:, :, k - 1]
                               + vec.reshape(len(lift.other_rows), z_total)
                               ) % p
        full = chart.copy()
        full[lift.other_rows] = stilde
        rows = coords.ring_columns_to_rows(full)
        subs = [Subspace.from_rows(cols, d, p)
                for cols, d in zip(np.split(rows, cuts, axis=1), dims)]
        flag = FlagOfSubmodules(m, seq, tuple(
            tuple(subs[t * m.n:(t + 1) * m.n]) for t in range(slots)))
        flag._check()
        return flag

    particular = build(np.zeros(dimension, dtype=np.int64))
    if _reduced_flag(red, particular).layers != base.layers:
        raise InternalCheckError("fiber solution does not reduce to base")
    return FiberOfReduction(base, False, dimension, expected, particular,
                            _builder=build, _kernel=kernel)


def _fiber_expected_dimension(shadow: hmod.Quotient,
                              base: FlagOfSubmodules) -> int:
    """dim Hom over the level-1 tensor algebra between the mod-eps
    reductions of the base chain and of its quotient chain.  A free
    submodule U meets eps M in eps U, so these are the chains of the image
    of the base flag in the shadow, and the Hom is its tangent space."""
    return tangent_dimension(shadow.module, _reduced_flag(shadow, base))


# --- point counting across primes ---------------------------------------------

@dataclass(frozen=True, eq=False)
class BundleRatioReport:
    brseq: tuple[RankVector, ...]
    k: int
    fiber_exponent: int
    rows: tuple[dict, ...]

    @property
    def ok_for_rigid(self) -> bool:
        return all(row["ok"] for row in self.rows if row["rigid"])

    @property
    def all_ok(self) -> bool:
        return all(row["ok"] for row in self.rows)


def bundle_ratio_check(m: HModule, brseq, primes=(2, 3)
                       ) -> BundleRatioReport:
    """Per prime: the level-k count must be q^d(brseq) times the count of
    the reduced flag variety at level k-1, exactly, whenever the ambient
    module is rigid at that prime.  Violations are reported, not raised."""
    if m.k < 2:
        raise KTooSmall("bundle check compares level k with k - 1")
    if not m.has_lift():
        raise ValidationError("bundle check needs an integer-defined module")
    seq = _rank_seq(brseq, m.n)
    if not primes:
        raise NotEnoughPrimes("bundle check needs at least one prime")
    d = flag_dimension(m.datum, seq)
    rows = []
    for q in primes:
        mq = hmod.reduce_mod_p(m, q)
        rigid = homext.is_rigid(mq) if hmod.is_locally_free(mq) else False
        top = point_count(mq, seq)
        bottom = point_count(reduction.reduce(mq).module, seq)
        if d >= 0:
            ok = top == q ** d * bottom
        else:
            ok = top * q ** (-d) == bottom
        rows.append({"q": q, "rigid": rigid, "count_k": top,
                     "count_k_minus_1": bottom, "exponent": d, "ok": ok})
    return BundleRatioReport(seq, m.k, d, tuple(rows))


@dataclass(frozen=True, eq=False)
class PointCountTable:
    """q -> count table with an interpolated counting polynomial and the
    value at q = 1 as a heuristic Euler-characteristic estimate."""

    brseq: tuple[RankVector, ...]
    k: int
    counts: dict
    degree_bound: int
    polynomial: Optional[tuple[int, ...]] = None
    chi_estimate: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "brseq": [list(r) for r in self.brseq],
            "k": self.k,
            "counts": {str(q): c for q, c in sorted(self.counts.items())},
            "degree_bound": self.degree_bound,
            "polynomial": list(self.polynomial)
            if self.polynomial is not None else None,
            "chi_estimate": self.chi_estimate,
        }

    def to_csv(self) -> str:
        lines = ["q,count"]
        for q, c in sorted(self.counts.items()):
            lines.append(f"{q},{c}")
        return "\n".join(lines) + "\n"


def counting_polynomial(m: HModule, brseq, primes=DEFAULT_PRIMES,
                        degree_bound: Optional[int] = None
                        ) -> PointCountTable:
    """Count the flag variety over several primes and interpolate.

    The default degree bound is k*d(brseq) (the dimension when non-empty,
    clamped at 0); one surplus prime is always counted so that a too-low
    bound is caught.  Failure to interpolate with integer coefficients, or
    a surplus-point mismatch, raises and means "no counting polynomial at
    this degree bound" - a heuristic verdict, not a theorem.
    """
    if not m.has_lift():
        raise ValidationError("counting needs an integer-defined module")
    seq = _rank_seq(brseq, m.n)
    d = flag_dimension(m.datum, seq)
    if degree_bound is None:
        degree_bound = max(m.k * d, 0)
    needed = degree_bound + 2
    if len(primes) < needed:
        raise NotEnoughPrimes(
            f"need {needed} primes for degree bound {degree_bound}")
    used = list(primes[:needed])
    counts = {}
    for q in used:
        counts[q] = point_count(hmod.reduce_mod_p(m, q), seq)
    coeffs = la.lagrange_interpolate(
        [(q, counts[q]) for q in used], degree_bound)
    return PointCountTable(seq, m.k, counts, degree_bound, coeffs,
                           la.eval_poly(coeffs, 1))


def closed_form_flag_count_no_arrows(datum: CartanDatum, k: int, q: int,
                                     brseq) -> int:
    """Exact count for data without arrows: per vertex, the classical flag
    count times q^((k*c_i - 1) * d_i) with d_i the sum of products of
    distinct layer ranks at that vertex."""
    if datum.oriented_pairs():
        raise ValidationError("closed form only applies without arrows")
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    seq = _rank_seq(brseq, datum.n)
    total = 1
    for i in range(datum.n):
        ranks = [r[i] for r in seq]
        msum = sum(ranks)
        classical = 1
        remaining = msum
        for r in ranks:
            classical *= la.gaussian_binomial(remaining, r, q)
            remaining -= r
        d_i = sum(ranks[a] * ranks[b]
                  for a in range(len(ranks))
                  for b in range(a + 1, len(ranks)))
        total *= classical * q ** ((k * datum.d[i] - 1) * d_i)
    return total
