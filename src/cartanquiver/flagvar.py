"""Flag varieties of locally free submodules: enumeration, point counts,
tangent spaces, and the fibers of the reduction map between levels.

Enumeration works per vertex first: the free rank-e submodules of a free
module over F_p[x]/(x^m) are generated directly from ring-echelon charts
(pivot rows carry the identity, rows between pivots are constrained to
higher x-degree), which hits every eps-invariant free-restriction
subspace exactly once.  Each key (loop order, rank, sub rank, p) has one
cached entry, which holds its chart count, the one encoding of its
charts (per pivot pattern the rows B_0 + sum_s c_s U_s, affine in the
pattern's free coefficients c) and, up to _BLOCK_TEST_CHARTS charts, the
table of every chart evaluated from it.  One backtracking search, which
only iterates, visits the vertices by ascending chart count, and one
rule gives each level the charts closed under the arrows to the vertices
already chosen: a table is tested at once, with no elimination (the rows
of a chart are the identity on its pivot columns, which is all a closure
test needs); a larger key is solved, one exact solve over F_p per
pattern, whose closed charts are built a few at a time.  One residue
computation serves both.  Flags recurse inside each closed top layer in
the basis of its chart rows, where the submodule is valid by
construction (`hmod._restrict`), so no inner layer is split, normalized,
eliminated or validated.  One function counts flags of every length, in
closed form at each layer and vertex no active arrow touches, so it
recurses only where an arrow can constrain a lower layer; it searches
the top layer's coupled vertices but the one with the most candidates,
and per closed tuple counts that one's closed charts, p^nullity per
solved pattern, without building them.  A level with no closure test is
visited in full, so a search refuses to start, with BudgetExceeded, when
such a level has more than VERTEX_CANDIDATE_BUDGET candidates, and
refuses a solved level that would build more closed charts than that;
what a count takes in closed form or counts per closed tuple is never
refused.  Flags of length l are chains over the tensor algebra with the
path algebra of a linear quiver on l-1 vertices, which gives their
tangent spaces (one Hom solve).  One flag check, on the block pass of a
split of the module along each layer (`hmod._split_blocks`, one block
list in the order of the module's maps), tests invariance, freeness and
nesting; each (sub, quotient) pair of its blocks is one relation of the
tangent Hom, solved without building a module.  Each flag object is
checked once: a flag is a value (tuples of subspaces with read-only
bases), so it keeps the read-only blocks of its check as long as it
lives, and its tangent space, its reduction and the fiber over it reuse
them.  The fiber of the reduction map over a fixed lower-level flag is
one affine linear system on the layers: every lift of a base layer
is Z + graph(phi) with Z = eps^(k-1) of its preimage and phi a linear map
into (eps^(k-1) M) / Z, and each loop, arrow and identity between layers
gives one affine equation in the phi, whose right-hand side is the
residue of the map on the base flag's sub block and whose linear part is
a Hom relation (rows from `homext.intertwiner_rows`).  The fiber
dimension is checked against the tangent dimension at the image of that
flag in the level-1 shadow of the reduction.  The reduction of a module,
its shadow and the blocks of eps^(k-1) are computed once per module and
kept as long as the module lives.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import exactlinalg as la
from . import hmod, homext
from . import reduction
from .cartan import (
    CartanDatum,
    RankVector,
    flag_dimension,
    rank_seq,
    read_datum,
    read_int,
    read_value,
)
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
# read by `_closure_search` at each call, not bound as a default
VERTEX_CANDIDATE_BUDGET = 10 ** 7


# --- free submodules of one truncated polynomial column ----------------------

def _chart_patterns(m_order: int, r: int, e: int):
    """Per pivot pattern, in chart order: (pivots, slots).  Row q off
    the pivots has a free entry in every column, of degree >= 1 in the
    columns whose pivot lies below q.  A chart's index within its pattern,
    written in base p over F_p, lists these free coefficients (row, col,
    degree) as `slots` orders them, least significant first."""
    if e < 0 or e > r:
        return []
    out = []
    for pivots in itertools.combinations(range(r), e):
        free = [(q, col, 0 if pivots[col] < q else 1)
                for q in range(r) if q not in pivots for col in range(e)]
        slots = [(q, col, t) for q, col, mind in reversed(free)
                 for t in range(mind, m_order)]
        out.append((pivots, slots))
    return out


def _free_submodule_count(m_order: int, r: int, e: int, q: int) -> int:
    """The chart count of a key: the number of free rank-e submodules of a
    free rank-r module over F_q[x]/(x^m), q^((m-1) e (r-e)) times the
    Gaussian binomial [r, e]_q, and 0 when e is not in 0..r."""
    if e < 0 or e > r:
        return 0
    return q ** ((m_order - 1) * e * (r - e)) * la.gaussian_binomial(r, e, q)


def _chart_rows(charts: np.ndarray, m_order: int) -> np.ndarray:
    """Row matrices of a stack of ring matrices: row col*m + shift is
    eps^shift times ring column col, in generator-major coordinates."""
    return np.swapaxes(hmod.ring_to_matrix(charts, m_order, m_order), -1, -2)


# --- per-vertex candidate tables ----------------------------------------------

_CANDIDATE_CACHE_SIZE = 256      # keys kept; a `count` bench pass uses 116
_BLOCK_TEST_CHARTS = 256         # charts up to which a key keeps its table


class _AffineCharts(NamedTuple):
    """The charts of one key as affine families, one per pivot pattern, in
    one stack of read-only row matrices (T, e*m, r*m): per pattern its
    identity rows B_0 (the chart whose free coefficients are all 0), then
    the unit rows U_s of each of its free coefficients s (`slots` order),
    so its chart with coefficients c has the rows B_0 + sum_s c_s U_s.
    `pivots` (T, e*m) holds each row's pattern columns P, on which B_0 is
    the identity and every U_s is zero; `starts` holds the index of each
    pattern's B_0, and `bounds` the same with the stack's end appended."""

    rows: np.ndarray
    pivots: np.ndarray
    starts: np.ndarray
    bounds: tuple[int, ...]


def _new_affine(m_order: int, r: int, e: int) -> _AffineCharts:
    """Per pattern, the ring matrices of B_0 (1 at (pivots[col], col) in
    degree 0) and of each unit (1 at its slot (row, col, degree) alone),
    set in one assignment, and their rows."""
    patterns = _chart_patterns(m_order, r, e)
    sizes = [1 + len(slots) for _, slots in patterns]
    bounds = tuple(itertools.accumulate(sizes, initial=0))
    ones = [(lo, q, col, 0) for lo, (piv, _) in zip(bounds, patterns)
            for col, q in enumerate(piv)]
    ones += [(lo + 1 + s, q, col, t)
             for lo, (_, slots) in zip(bounds, patterns)
             for s, (q, col, t) in enumerate(slots)]
    ring = np.zeros((bounds[-1], r, e, m_order), dtype=np.int64)
    ring[tuple(np.array(ones, dtype=np.int64).reshape(-1, 4).T)] = 1
    rows = np.ascontiguousarray(_chart_rows(ring, m_order))
    lead = np.array([piv for piv, _ in patterns], dtype=np.int64)
    columns = (lead.reshape(len(patterns), e, 1) * m_order
               + np.arange(m_order)).reshape(len(patterns), e * m_order)
    pivots = np.repeat(columns, sizes, axis=0)
    starts = np.array(bounds[:-1])
    for a in (rows, pivots, starts):
        a.setflags(write=False)
    return _AffineCharts(rows, pivots, starts, bounds)


def _pattern_rows(affine: _AffineCharts, lo: int, hi: int,
                  coeffs: np.ndarray) -> np.ndarray:
    """The rows B_0 + sum_s c_s U_s (N, e*m, r*m) of the pattern whose
    stack rows are lo, ..., hi - 1, at each row c of coeffs (N, slots)."""
    _, d, ambient = affine.rows.shape
    units = affine.rows[lo + 1:hi].reshape(hi - lo - 1, d * ambient)
    return (coeffs @ units).reshape(len(coeffs), d, ambient) + affine.rows[lo]


@dataclass(frozen=True, eq=False)
class _CandidateTable:
    """Every candidate submodule of one (m_order, r, e, p) key, in chart
    order: the read-only chart rows (N, e*m, r*m), not reduced, and their
    identity columns (N, e*m).  Row col*m + shift of a chart is eps^shift
    times ring column col, so it has a 1 at generator pivots[col] in
    degree shift, column pivots[col]*m + shift, and a 0 at every other
    such column: the rows are the identity on those columns P.  A row
    vector v then lies in the chart's span exactly when v - v[:, P] @ rows
    is zero, which is all the closure tests need; a candidate is reduced
    to its canonical Subspace only when a search yields it, once per
    table."""

    p: int
    basis: np.ndarray
    pivots: np.ndarray
    _reduced: dict = field(default_factory=dict, init=False, repr=False)

    def subspace(self, t: int) -> Subspace:
        """Candidate t as its canonical Subspace, reduced on first use and
        kept by the table, since searches yield the same charts often."""
        sub = self._reduced.get(t)
        if sub is None:
            sub = self._reduced[t] = Subspace.from_rows(
                self.basis[t], self.basis.shape[2], self.p)
        return sub


def _new_table(affine: _AffineCharts, p: int) -> _CandidateTable:
    """Every chart of a key, evaluated from its `_AffineCharts` with no
    elimination: chart code c of a pattern has the rows B(digits of c),
    least significant first in `slots` order, and the pattern's columns P.
    Every chart's rows must be the identity on P, which also makes their
    rank e*m (the chart spans a free submodule)."""
    spans = list(zip(affine.bounds, affine.bounds[1:]))
    basis = np.concatenate([_pattern_rows(affine, lo, hi, la.digits(
        np.arange(p ** (hi - lo - 1)), p, hi - lo - 1)) for lo, hi in spans])
    pivots = np.repeat(affine.pivots[affine.starts],
                       [p ** (hi - lo - 1) for lo, hi in spans], axis=0)
    if (np.take_along_axis(basis, pivots[:, None, :], axis=2)
            != la.identity(basis.shape[1])).any():
        raise InternalCheckError(
            "a ring-echelon chart is not the identity on its pivot columns")
    basis.setflags(write=False)
    pivots.setflags(write=False)
    return _CandidateTable(p, basis, pivots)


class _KeyEntry(NamedTuple):
    """What every search over one key reads: its chart count, its table,
    or None above _BLOCK_TEST_CHARTS charts, where searches solve, and its
    `_AffineCharts`, the one encoding of its charts."""

    charts: int
    table: Optional[_CandidateTable]
    affine: _AffineCharts


@functools.lru_cache(maxsize=_CANDIDATE_CACHE_SIZE)
def _vertex_candidates(m_order: int, r: int, e: int, p: int) -> _KeyEntry:
    """The entry of one key: its `_AffineCharts`, its chart count
    (`_free_submodule_count`) and, up to _BLOCK_TEST_CHARTS charts, its
    table.  This is the one place that reads that constant: every search
    over the key reads the entry, so a constant changed later reaches
    only the keys built after it."""
    affine = _new_affine(m_order, r, e)
    count = _free_submodule_count(m_order, r, e, p)
    table = _new_table(affine, p) if count <= _BLOCK_TEST_CHARTS else None
    return _KeyEntry(count, table, affine)


def _entry(m: HModule, rank: RankVector, e: RankVector, v: int) -> _KeyEntry:
    return _vertex_candidates(m.loop_order(v), rank[v], e[v], m.p)


# --- submodule and flag enumeration ------------------------------------------

class _Chart(NamedTuple):
    """A chosen chart: its rows (e*m, r*m), the identity on its columns
    `pivots`, and, when it was read off a table, that table and its index
    there, so that the table's reduced subspace serves it."""

    rows: np.ndarray
    pivots: np.ndarray
    table: Optional[_CandidateTable] = None
    index: int = 0


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


def _residues(rows: np.ndarray, pivots: np.ndarray, img_at, p: int,
              v: int, tests, chosen: dict) -> Iterator[np.ndarray]:
    """Per arrow, the closure residues (mod p) of a stack of chart rows
    (N, e*m, r*m) at vertex v, with their columns P (N, e*m), against the
    chosen `_Chart` of the arrow's other vertex.  Chart rows are the
    identity on P, so a row vector w lies in a chart's span exactly when
    w - w[:, P] @ rows is zero.  At a chosen source the residue is
    img - img[:, P] @ rows, with img the image of the chosen chart, which
    is added only at the rows `img_at`; at a chosen target it is
    rows @ reduced, with reduced the residue of the rows of a.T against
    the chosen chart.  Both are linear in the rows, up to the img added."""
    for i, j, a in tests:
        if i == v:
            img = (chosen[j].rows @ a.T) % p
            resid = img[:, pivots].transpose(1, 0, 2) @ rows
            np.negative(resid, out=resid)
            resid[img_at] += img
        else:
            other = chosen[i]
            at = a.T
            reduced = (at - at.take(other.pivots, 1) @ other.rows) % p
            resid = rows @ reduced
        resid %= p
        yield resid


def _closed(table: _CandidateTable, v: int, tests, chosen: dict
            ) -> np.ndarray:
    """Mask of the candidates at vertex v closed under the given arrows to
    the chosen charts of other vertices: a candidate is closed when its
    `_residues`, with img added at every row, all vanish, one residue
    computation per arrow for the whole table."""
    ok = np.ones(len(table.basis), dtype=bool)
    for resid in _residues(table.basis, table.pivots, slice(None), table.p,
                           v, tests, chosen):
        ok &= ~resid.any(axis=(1, 2))
    return ok


def _solutions(affine: _AffineCharts, p: int, v: int, tests, chosen: dict
               ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Per pivot pattern with a chart at vertex v closed under the given
    arrows to the chosen charts of other vertices, (lo, hi, c0, U): the
    pattern's stack rows are lo, ..., hi - 1, and its closed charts are
    B(c0 + x U) for x in F_p^nullity, with no chart built to find them.
    Within one pattern the rows B(c) = B_0 + sum_s c_s U_s are affine in
    the free coefficients c, and so are the `_residues` of B(c) when img
    is added at B_0 alone.  Stacked over the arrows, the residue is
    b + A c, with b the residue of B_0 and column s of A the residue of
    U_s; the closed charts are the solutions of A c = -b, one `la.solve`,
    and there are none when b is non-zero where A has a zero row."""
    rows, starts = affine.rows, affine.starts
    # row t: the residue of stacked row t, one column per equation
    residues = np.concatenate(
        [la.zeros(len(rows), 0)] + [resid.reshape(len(rows), -1) for resid in
                                    _residues(rows, affine.pivots, starts, p,
                                              v, tests, chosen)], axis=1)
    # per pattern, its equations with a non-zero b and with a non-zero
    # linear part: one with only the first has no solution
    nonzero = residues != 0
    b = nonzero[starts]
    nonzero[starts] = False
    linear = np.logical_or.reduceat(nonzero, starts)
    for t, (lo, hi) in enumerate(zip(affine.bounds, affine.bounds[1:])):
        if (b[t] & ~linear[t]).any():
            continue
        solution = (np.zeros(hi - lo - 1, dtype=np.int64),
                    la.identity(hi - lo - 1))
        if linear[t].any():
            eqs = residues[lo:hi, linear[t]]
            solution = la.solve(eqs[1:].T, -eqs[0], p)
            if solution is None:
                continue
        yield lo, hi, *solution


def _closed_charts(entry: _KeyEntry, p: int, v: int, tests, chosen: dict
                   ) -> Iterator[_Chart]:
    """The charts at vertex v closed under the given arrows to the chosen
    charts of other vertices, the one rule of every level of a search: a
    table is tested at once (`_closed`); a key without one is solved
    (`_solutions`), and its closed charts are built 64 at a time, once
    their number, which the level visits, is within the budget."""
    table = entry.table
    if table is not None:
        for t in np.flatnonzero(_closed(table, v, tests, chosen)).tolist():
            yield _Chart(table.basis[t], table.pivots[t], table, t)
        return
    affine = entry.affine
    solutions = list(_solutions(affine, p, v, tests, chosen))
    _refuse_over_budget(v, sum(p ** len(kernel) for *_, kernel in solutions))
    for lo, hi, c0, kernel in solutions:
        total = p ** len(kernel)
        for start in range(0, total, 64):
            codes = la.digits(np.arange(start, min(total, start + 64)), p,
                              len(kernel))
            for rows in _pattern_rows(affine, lo, hi,
                                      (c0 + codes @ kernel) % p):
                yield _Chart(rows, affine.pivots[lo])


def _solved_count(entry: _KeyEntry, p: int, v: int, tests, chosen: dict
                  ) -> int:
    """The number of charts `_closed_charts` yields, none of them built:
    the closed charts of the table, or p^nullity per solved pattern."""
    if entry.table is not None:
        return int(np.count_nonzero(_closed(entry.table, v, tests, chosen)))
    return sum(p ** len(kernel) for *_, kernel in
               _solutions(entry.affine, p, v, tests, chosen))


def _refuse_over_budget(v: int, visited: int) -> None:
    """Refuse a level that would visit too many charts at vertex v."""
    if visited > VERTEX_CANDIDATE_BUDGET:
        raise BudgetExceeded(
            f"vertex {v + 1} has {visited} candidate submodules, above "
            f"flagvar.VERTEX_CANDIDATE_BUDGET = {VERTEX_CANDIDATE_BUDGET}")


def _closure_search(m: HModule, rank: RankVector, e: RankVector,
                    vertices):
    """Backtracking over `vertices` by ascending chart count, then by
    vertex, so that a large vertex comes after the vertices that constrain
    it: each level takes the closed charts of its vertex against the
    active arrows to the vertices already chosen (`_closed_charts`).
    Yields the closed tuples, each as a dict of the chosen `_Chart` of
    every vertex in search order, which `_residues` reads.  A level with
    no closure test is visited in full, so one over VERTEX_CANDIDATE_BUDGET
    charts refuses the search before its first tuple; a solved level is
    refused when it reaches more closed charts than that."""
    active = _active_arrows(m, rank, e)
    entries = {v: _entry(m, rank, e, v) for v in vertices}
    levels = []
    placed: set[int] = set()
    for v in sorted(entries, key=lambda v: (entries[v].charts, v)):
        placed.add(v)
        tests = [(i, j, a) for i, j, a in active
                 if v in (i, j) and {i, j} <= placed]
        if not tests:
            _refuse_over_budget(v, entries[v].charts)
        levels.append((v, entries[v], tests))
    chosen: dict[int, _Chart] = {}

    def extend(idx: int):
        v, entry, tests = levels[idx]
        last = idx + 1 == len(levels)
        for chart in _closed_charts(entry, m.p, v, tests, chosen):
            chosen[v] = chart
            if last:
                yield dict(chosen)
            else:
                yield from extend(idx + 1)
        chosen.pop(v, None)

    yield from extend(0)


def _grassmannian(m: HModule, e):
    """The standard form of m (`hmod._standard`), its change of basis and
    the two-step sequence (e, rank - e) whose flags are the free rank-e
    submodules of m.  Raises RankTooLarge unless e <= rank."""
    rank = hmod.rank_vector(m)
    e = RankVector(e)
    if not (e <= rank):
        raise RankTooLarge(f"requested rank {tuple(e)} exceeds {tuple(rank)}")
    return *hmod._standard(m), (e, rank - e)


def iter_locally_free_submodules(m: HModule, e
                                 ) -> Iterator[tuple[Subspace, ...]]:
    """Stream every tuple of per-vertex free submodules of rank e closed
    under all arrows, exactly once each (charts are disjoint): the bottom
    layers of the two-step flags (e, rank - e)."""
    std, ts, seq = _grassmannian(m, e)
    for chain in _layer_chains(std, seq):
        yield _chain_layers(chain, ts, m.p)[0]


def count_locally_free_submodules(m: HModule, e) -> int:
    """Grassmannian point count: the number of two-step flags
    (e, rank - e), counted by `_count_charts`."""
    std, _, seq = _grassmannian(m, e)
    return _count_charts(std, seq)


def _count_charts(m: HModule, seq) -> int:
    """The number of flags of m, which is in standard form, with subquotient
    ranks seq (which sum to the rank of m; one step is the flag (rank)), the
    one place that counts.  Where an arrow is active (`_active_arrows`) at a
    step below the top proper layer e (a zero arrow of m is zero in every
    record), it sums the counts inside the `hmod._restrict` record of each
    closed top layer, as `_layer_chains` recurses.  Else it multiplies the
    closed forms (`_free_submodule_count`) of the lower steps and of the
    vertices of e no active arrow touches, their entries never built, by the
    count of the others: all but the one with the most charts, `top`, by
    `_closure_search`, and per closed tuple the closed charts of `top`,
    never built (`_solved_count`)."""
    *sums, rank = itertools.accumulate(seq)
    e = sums[-1] if sums else rank
    lower = list(zip(sums, sums[1:]))
    if any(_active_arrows(m, r, s) for s, r in lower):
        return sum(_count_charts(hmod._restrict(
            m, [chosen[v].rows for v in range(m.n)],
            [chosen[v].pivots for v in range(m.n)]), seq[:-1])
            for chosen in _closure_search(m, rank, e, range(m.n)))
    active = _active_arrows(m, rank, e)
    coupled = {v for (i, j, _) in active for v in (i, j)}
    free_factor = 1
    for s, r, skip in [(e, rank, coupled)] + [(s, r, ()) for s, r in lower]:
        for i in range(m.n):
            if 0 < s[i] < r[i] and i not in skip:
                free_factor *= _free_submodule_count(m.loop_order(i), r[i],
                                                     s[i], m.p)
    if not coupled:
        return free_factor
    top = max(coupled, key=lambda v: (_entry(m, rank, e, v).charts, v))
    entry = _entry(m, rank, e, top)
    tests = [(i, j, a) for i, j, a in active if top in (i, j)]
    return free_factor * sum(
        _solved_count(entry, m.p, top, tests, chosen)
        for chosen in _closure_search(m, rank, e, coupled - {top}))


@dataclass(frozen=True, eq=False)
class FlagOfSubmodules:
    """A chain of per-vertex subspaces 0 < U_1 < ... < U_{l-1} < M realizing
    a point of the flag variety with subquotient ranks brseq, checked by
    the one flag check `_flag_blocks`.  brseq and layers are stored as
    tuples (lists are converted; a tuple is kept as given), and subspaces
    and modules never change, so a flag never changes: it keeps the blocks
    of its first successful check while it lives."""

    module: HModule
    brseq: tuple[RankVector, ...]
    layers: tuple[tuple[Subspace, ...], ...]

    def __post_init__(self):
        for name in ("brseq", "layers"):
            value = getattr(self, name)
            if not (isinstance(value, tuple)
                    and all(isinstance(v, tuple) for v in value)):
                object.__setattr__(self, name, read_value(
                    lambda v: tuple(map(tuple, v)), value, f"bad {name}"))

    def validate(self) -> None:
        hmod.rank_vector(self.module)   # raises NotLocallyFree
        self._check()

    def _check(self) -> tuple[list, list]:
        """`validate` for a module known to be locally free, as callers
        that check many flags of one module know: the (read-only) blocks
        of `_flag_blocks` for this flag's module, kept after the first
        check.  A check that raises keeps nothing."""
        return self._kept

    @functools.cached_property
    def _kept(self) -> tuple[list, list]:
        return _flag_blocks(self.module, self.brseq, self.layers)


def _flag_blocks(m: HModule, brseq, layers) -> tuple[list, list]:
    """The one flag check: the partial sums of brseq (read by `rank_seq`) give
    the layer count and, times the loop orders, the dims of m (the last)
    and of each layer; per layer the block pass `hmod._split_blocks` of
    every loop and arrow (invariance), and per vertex the dimension and
    freeness (`hmod._not_free_rank` of the loop's sub block,
    `blocks[i][0]`, as the loops come first in `maps_with_labels()`);
    then the identity's blocks from each layer to the next, which test
    nesting and are the connectors.  Returns (the block pass per layer,
    as (its subspaces, its blocks in the order of `maps_with_labels()`),
    the identity blocks per vertex per adjacent pair)."""
    sums = tuple(itertools.accumulate(rank_seq(brseq, m.n)))
    if len(layers) != len(sums) - 1:
        raise ShapeMismatch("layer count does not match brseq length")
    if tuple(r * m.loop_order(i) for i, r in enumerate(sums[-1])) != m.dims:
        raise ShapeMismatch("brseq does not sum to the ambient rank")
    own = m.maps_with_labels()
    splits = []
    for t, layer in enumerate(layers):
        maps = [(f"layer {t + 1} not closed under "
                 f"{'loop' if i == j else 'arrow'} {label}", x, i, j)
                for label, x, i, j in own]
        sides, blocks = hmod._split_blocks(m, layer, maps)
        for i in range(m.n):
            order = m.loop_order(i)
            dim = layer[i].dim
            if dim != order * sums[t][i]:
                raise ShapeMismatch(
                    f"layer {t + 1} has wrong dimension at vertex {i + 1}")
            loop = blocks[i][0]
            if dim and hmod._not_free_rank(loop, hmod._jordan_order(loop),
                                           order, m.p) is not None:
                raise NotLocallyFree(
                    f"layer {t + 1} not free at vertex {i + 1}")
        splits.append((sides, blocks))
    return splits, [
        [hmod._blocks(f"layers {t + 1} and {t + 2} are not nested: the "
                      f"inclusion at vertex {i + 1}", la.identity(d),
                      src[i], tgt[i]) for i, d in enumerate(m.dims)]
        for t, (src, tgt) in enumerate(zip(layers, layers[1:]))]


def _read_flag(m: HModule, flag) -> tuple[list, list]:
    """The one reader of a flag argument: ValidationError unless flag is a
    FlagOfSubmodules and m a module, then the blocks of the flag check of
    `flag` as a flag of m: the flag's own (kept) check when m is its
    module, else `_flag_blocks` against m."""
    if not isinstance(flag, FlagOfSubmodules):
        raise ValidationError(f"expected a flag (FlagOfSubmodules), got "
                              f"{type(flag).__name__}")
    if flag.module is hmod.read_module(m):
        return flag._check()
    return _flag_blocks(m, flag.brseq, flag.layers)


def _checked_seq(m: HModule, brseq):
    """brseq as rank vectors, or None when it does not sum to the rank of
    m."""
    seq = rank_seq(brseq, hmod.read_module(m).n)
    rank = hmod.rank_vector(m)
    if tuple(sum(r[i] for r in seq) for i in range(m.n)) != tuple(rank):
        return None
    return seq


def _layer_chains(m: HModule, seq):
    """Depth first over the flags of m, which is in standard form, with
    subquotient ranks seq (which sum to the rank of m): the top proper
    layer runs over the closed charts of the Grassmannian (`_closure_search`
    over every vertex), and the rest recurses inside the
    `hmod._restrict` of m to each, in the basis of its chart rows B_i, with
    no split, normalization, elimination or validation.

    That record is valid by construction (see `hmod._restrict`): the
    chart rows are the identity on their pivot columns P_i and span an
    invariant subspace.  Every active arrow maps the chart at j into the
    chart at i, since the search found its residue a B_j^T - B_i^T X
    (`_residues`) zero at X = (a B_j^T)[P_i]; an inactive arrow is zero,
    has a zero source layer (an empty block), or has a full target layer,
    whose one chart is the identity.  Row col*m + shift of a chart is
    eps^shift times ring column col, and m is in standard form, so the
    loop takes it to the next row of its column (to 0 past the last): the
    restricted loop is the standard Jordan matrix, and the record is a
    locally free module in standard form, of the rank of the top layer.

    Yields each flag as its layers' `_Chart`s in vertex order (the top
    one's read off the tuple the search yields), bottom first, each in
    the chart basis of the layer above it (the top one in the coordinates
    of m); `_count_charts` counts them, recursing only where it must."""
    if len(seq) == 1:
        yield []
        return
    top_rank = sum(seq[1:-1], seq[0])
    for chosen in _closure_search(m, top_rank + seq[-1], top_rank,
                                  range(m.n)):
        charts = tuple(chosen[v] for v in range(m.n))
        if len(seq) == 2:
            yield [charts]
            continue
        inner = hmod._restrict(m, [c.rows for c in charts],
                               [c.pivots for c in charts])
        for chain in _layer_chains(inner, seq[:-1]):
            yield chain + [charts]


def _chain_layers(chain, ts, p: int) -> tuple[tuple[Subspace, ...], ...]:
    """The layers of a `_layer_chains` chain as subspaces of the module:
    each layer's chart rows composed with the rows of every layer above
    it and, when given, with the change of basis ts of `hmod.normalize`
    (row v in standard coordinates is v T_i^T in the module's).  Without
    ts a top chart read off a table is the table's subspace."""
    top = chain[-1]
    if ts is None:
        rows = [c.rows for c in top]
        layers = [tuple(_span([c.rows], p)[0] if c.table is None
                        else c.table.subspace(c.index) for c in top)]
    else:
        rows = [(c.rows @ x.T) % p for c, x in zip(top, ts)]
        layers = [_span(rows, p)]
    for charts in reversed(chain[:-1]):
        rows = [(c.rows @ r) % p for c, r in zip(charts, rows)]
        layers.append(_span(rows, p))
    return tuple(reversed(layers))


def _span(rows, p: int) -> tuple[Subspace, ...]:
    return tuple(Subspace.from_rows(r, r.shape[1], p) for r in rows)


def iter_flags(m: HModule, brseq) -> Iterator[FlagOfSubmodules]:
    """Stream flags depth first (see `_layer_chains`), in the standard form
    of m mapped back by `hmod.normalize`'s change of basis when m is not in
    it.  Every yielded flag is checked against m."""
    seq = _checked_seq(m, brseq)
    if seq is None:
        return
    std, ts = hmod._standard(m)
    for chain in _layer_chains(std, seq):
        layers = _chain_layers(chain, ts, m.p) if chain else ()
        flag = FlagOfSubmodules(m, seq, layers)
        flag._check()
        yield flag


def point_count(m: HModule, brseq) -> int:
    """Number of flags, by `_count_charts` on the standard form of m.
    VERTEX_CANDIDATE_BUDGET bounds the charts that each level of a search
    visits: all of them at a level with no closure test, the closed ones
    at a solved level.  What a count takes in closed form or counts per
    closed tuple, it never visits, so never refuses."""
    seq = _checked_seq(m, brseq)
    if seq is None:
        return 0
    return _count_charts(hmod._standard(m)[0], seq)


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
        hmod.read_module(*self.slots)
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
        """The slots' loops and arrows, then the connectors (`_chain_maps`)."""
        return _chain_maps(self.slots[0].n,
                           [slot.maps_with_labels() for slot in self.slots],
                           self.connectors)


def _chain_maps(n: int, slots, connectors) -> list:
    """The maps (label, matrix, target, source) of a chain over the linear
    quiver, on the vertices (slot t, vertex i) at t*n + i: each slot's maps
    (label, matrix, i, j), then the connectors (t, i) -> (t+1, i)."""
    out = [(f"{label} in slot {t + 1}", mat, t * n + i, t * n + j)
           for t, maps in enumerate(slots) for label, mat, i, j in maps]
    out.extend((f"mu_{t + 1}->{t + 2} at vertex {i + 1}", mu[i],
                (t + 1) * n + i, t * n + i)
               for t, mu in enumerate(connectors) for i in range(n))
    return out


def hom_tensor(x: TensorModule, y: TensorModule) -> homext.HomBasis:
    """Basis of Hom between tensor modules: one kernel of the slot
    intertwiners and the commuting squares with the connectors, solved and
    re-checked like `homext.hom_space`."""
    if not (isinstance(x, TensorModule) and isinstance(y, TensorModule)):
        raise ValidationError("hom_tensor takes two TensorModule")
    if len(x.slots) != len(y.slots):
        raise ShapeMismatch("tensor modules of different length")
    hmod.read_module(x.slots[0], y.slots[0])
    return homext._hom_basis(x, y)


def tangent_dimension(m: HModule, flag: FlagOfSubmodules) -> int:
    """dim of the tangent space at a flag point: dim Hom from the sub chain
    iota(U) to the quotient chain M^(l)/iota(U), by one exact linear solve
    (never through the Euler-form shortcut): each (sub, quotient) block
    pair of the flag check, of a loop or arrow and of the identity between
    layers, is one relation, at the vertices of `_chain_maps`.  The chains
    are not checked again: the flag check tested that the layers are
    invariant and nested, so restriction and corestriction keep (H1) and
    (H2) and the identity's blocks are homomorphisms.  Raises
    ValidationError when the flag does not fit m or its layers are not a
    flag."""
    splits, conn = _read_flag(m, flag)
    own = m.maps_with_labels()
    slots = [[(label, b, i, j) for (label, _, i, j), b in zip(own, blocks)]
             for _, blocks in splits]
    relations = [(label, sub, quot, i, j) for label, (sub, quot), i, j
                 in _chain_maps(m.n, slots, conn)]
    us = [u for layer in flag.layers for u in layer]
    return len(homext._hom_kernel(
        relations, tuple(u.dim for u in us),
        tuple(u.ambient - u.dim for u in us), m.p))


# --- reduction of flags and its fibers ----------------------------------------

def reduce_flag(m: HModule, flag: FlagOfSubmodules) -> FlagOfSubmodules:
    """Image of a flag of m under the projections onto M / eps^(k-1) M.
    Raises ValidationError when the layers are not a flag of m."""
    if hmod.read_module(m).k < 2:
        raise KTooSmall("flag reduction needs k >= 2")
    data = _reduction_data(m)
    _read_flag(m, flag)
    out = _reduced_flag(data.red, flag)
    out._check()
    return out


def _reduced_flag(red: hmod.Quotient,
                  flag: FlagOfSubmodules) -> FlagOfSubmodules:
    """The layers of a flag projected by a reduction, each layer's basis
    through the quotient coordinates of the reduction's subspaces; not
    validated."""
    return FlagOfSubmodules(red.module, flag.brseq, tuple(
        tuple(Subspace.from_rows(k.quotient_coords(u.basis.T).T,
                                 k.ambient - k.dim, k.p)
              for u, k in zip(layer, red.subspaces))
        for layer in flag.layers))


@dataclass(frozen=True, eq=False)
class _ReductionData:
    """What the reduction of flags and its fibers need of one module: its
    reduction, the level-1 shadow of the reduction (modulo the central
    nilpotent) and the read-only blocks E_i = Eps_i^((k-1)c_i) of
    eps^(k-1), whose images are the subspaces of the reduction.  Holds no
    reference to the module, so the memo entry dies with it."""

    red: hmod.Quotient
    shadow: hmod.Quotient
    blocks: tuple[np.ndarray, ...]


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
        shadow = reduction._quotient_at_level(mbar, 1)
        blocks = tuple(map(hmod._frozen, hmod.epsilon_blocks(m, m.k - 1)))
        data = _ReductionData(red, shadow, blocks)
        _REDUCTION_DATA[m] = data
    return data


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

    def flag_at(self, coeffs) -> FlagOfSubmodules:
        """The point of the fiber with the given integer coordinates
        (taken mod p) on the kernel basis."""
        if self.empty:
            raise ValidationError("fiber is empty")
        coeffs = la.integer_array(coeffs)
        if coeffs.shape != (self.dimension,):
            raise ShapeMismatch(f"need {self.dimension} coefficients")
        return self._builder(coeffs % self.base.module.p)

    def point_count(self) -> int:
        if self.empty:
            return 0
        return self.base.module.p ** self.dimension


class _Lift(NamedTuple):
    """The lift data of one layer of a base flag at one vertex: the base
    rows w placed on the coordinates off the pivots of K = eps^(k-1) M,
    Z = eps^(k-1) w in K's pivot coordinates, and the rows of M spanning
    the quotient coordinates of T = K / Z."""
    w: np.ndarray
    z: Subspace
    t: np.ndarray


def fiber_of_reduction(m: HModule, base: FlagOfSubmodules
                       ) -> FiberOfReduction:
    """Solve for all level-k flags of M reducing to a given level-(k-1) flag.

    Per layer and vertex, with K = eps^(k-1) M, W = rho^-1(Ubar) the
    preimage of the base layer and Z = eps^(k-1) W: a lift U of Ubar
    contains eps^(k-1) U = eps^(k-1) W = Z (U + K = W and eps^(k-1) K = 0),
    and U meets K exactly in its socle Z, because U is free over the
    center.  Since U + K = W, U / Z is the graph of a unique linear map
    phi: Ubar -> K / Z, written on the lift rows w of the base basis as
    U = Z + span(w + phi^T t).  Conversely every such U has dim U =
    k dim Z, so it is free over the center and therefore locally free.
    U is a flag of submodules exactly when every loop and arrow x: (t, j)
    -> (t, i) in each layer, and each identity from layer t to t + 1, maps
    lifts into lifts: with c the sub block of x on the base flag and the
    residue r = x w_j^T - w_i^T c in K, this is the affine equation
    phi_i c - x~ phi_j = [r] in K / Z, where x~ is the map x induces
    from K / Z at the source to K / Z at the target: the Hom relation
    (label, c, x~, i, j) in the phi.  All equations form one system, with
    rows from `homext.intertwiner_rows` over `homext.Layout.of` with every
    phi of order 1, solved once, and each lift reads its phi at the
    layout's columns; its linear part is the level-1 Hom whose dimension
    `_fiber_expected_dimension` checks.  The base is read as a flag of its
    own module (its kept check), which must equal the reduction of M.
    """
    if hmod.read_module(m).k < 2:
        raise KTooSmall("fibers of reduction need k >= 2")
    data = _reduction_data(m)
    red = data.red
    mbar = red.module
    try:
        splits, conn = _read_flag(getattr(base, "module", mbar), base)
    except LengthMismatch:          # a brseq of the wrong length, as it is
        raise
    except ValidationError as exc:
        raise FlagNotInReduction(f"base flag invalid: {exc}") from exc
    if base.module is not mbar and not hmod.modules_equal(base.module, mbar):
        raise FlagNotInReduction(
            "base flag does not live in the reduction of the module")
    seq = rank_seq(base.brseq, m.n)
    expected = _fiber_expected_dimension(data.shadow, base)
    p, n = m.p, m.n
    ks = red.subspaces
    # one lift per layer t and vertex i, at index t*n + i
    lifts = []
    for layer in base.layers:
        for i, (ubar, kk) in enumerate(zip(layer, ks)):
            w = la.zeros(ubar.dim, m.dims[i])
            w[:, kk.off_pivots] = ubar.basis
            z = Subspace.from_rows(
                ((w @ data.blocks[i].T) % p).take(kk.pivots, 1), kk.dim, p)
            if (m.k - 1) * z.dim != ubar.dim:
                raise FlagNotInReduction(
                    "base chain is not free over the center")
            lifts.append(_Lift(w, z, kk.basis.take(z.off_pivots, 0)))

    # each map and identity x with sub block c is one relation (c, x~);
    # every unknown of order 1 and no relation built in, as a built-in
    # loop relation would drop its right-hand side [r]
    own = m.maps_with_labels()
    slots = [[(label, (x, b[0]), i, j) for (label, x, i, j), b
              in zip(own, blocks)] for _, blocks in splits]
    identities = [[(la.identity(d), b[0]) for d, b in zip(m.dims, pairs)]
                  for pairs in conn]
    relations = []
    rhs = [np.zeros(0, dtype=np.int64)]
    for label, (x, c), ti, tj in _chain_maps(n, slots, identities):
        tgt, src = lifts[ti], lifts[tj]
        kk = ks[ti % n]
        r = (x @ src.w.T - tgt.w.T @ c) % p
        if kk.quotient_coords(r).any():
            raise FlagNotInReduction(
                "base chain is not invariant under the algebra action")
        relations.append((label, c, tgt.z.quotient_coords(
            (x @ src.t.T).take(kk.pivots, 0)), ti, tj))
        rhs.append(tgt.z.quotient_coords(r.take(kk.pivots, 0)).ravel())
    layout = homext.Layout.of([lift.w.shape[0] for lift in lifts],
                              [lift.t.shape[0] for lift in lifts],
                              (1,) * len(lifts), ())
    rows = homext.intertwiner_rows(relations, layout, p)
    solution = la.solve(np.concatenate([la.zeros(0, layout.total), *rows]),
                        np.concatenate(rhs), p)
    if solution is None:
        return FiberOfReduction(base, True, None, expected)
    particular_vec, kernel = solution
    dimension = kernel.shape[0]
    if dimension != expected:
        raise InternalCheckError(
            f"fiber dimension {dimension} does not match the Hom-space "
            f"cross-check {expected}")

    def build(coeffs: np.ndarray) -> FlagOfSubmodules:
        vec = (particular_vec + (coeffs @ kernel if dimension else 0)) % p
        subs = []
        for s, lift in enumerate(lifts):
            phi = vec[layout.columns(s)].reshape(lift.t.shape[0],
                                                 lift.w.shape[0])
            subs.append(Subspace.from_rows(np.concatenate(
                [lift.z.basis @ ks[s % n].basis, lift.w + phi.T @ lift.t]),
                m.dims[s % n], p))
        flag = FlagOfSubmodules(m, seq, tuple(
            tuple(subs[t:t + n]) for t in range(0, len(subs), n)))
        flag._check()
        return flag

    particular = build(np.zeros(dimension, dtype=np.int64))
    if _reduced_flag(red, particular).layers != base.layers:
        raise InternalCheckError("fiber solution does not reduce to base")
    return FiberOfReduction(base, False, dimension, expected, particular,
                            _builder=build)


def _fiber_expected_dimension(shadow: hmod.Quotient,
                              base: FlagOfSubmodules) -> int:
    """dim Hom over the level-1 tensor algebra between the mod-eps
    reductions of the base chain and of its quotient chain.  A free
    submodule U meets eps M in eps U, so these are the chains of the image
    of the base flag in the shadow, and the Hom is its tangent space."""
    return tangent_dimension(shadow.module, _reduced_flag(shadow, base))


# --- point counting across primes ---------------------------------------------

def check_primes(primes) -> tuple[int, ...]:
    """primes as a tuple, each a supported prime (`la.check_prime`), with
    no repeat: a count is refused before it starts, not after.  primes
    that are not a sequence raise ValidationError."""
    primes = read_value(tuple, primes, "bad primes")
    for q in primes:
        la.check_prime(q)
    if len(set(primes)) != len(primes):
        raise ValidationError(f"primes must be distinct, got {primes}")
    return primes


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
    module is rigid at that prime.  Violations are reported, not raised;
    the primes are checked (`check_primes`) before any count.  The module
    at q is `hmod.reduce_mod_p(m, q)`, m's entries read mod q; entries
    that break the relations mod q raise RelationBrokenAtPrime."""
    if hmod.read_module(m).k < 2:
        raise KTooSmall("bundle check compares level k with k - 1")
    seq = rank_seq(brseq, m.n)
    primes = check_primes(primes)
    if not primes:
        raise NotEnoughPrimes("bundle check needs at least one prime")
    d = flag_dimension(m.datum, seq)
    rows = []
    for q in primes:
        mq = hmod.reduce_mod_p(m, q)
        rigid = homext.is_rigid(mq)
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
    this degree bound" - a heuristic verdict, not a theorem.  The primes
    it counts are checked (`check_primes`), and a negative bound refused,
    before any count.  Each prime q counts `hmod.reduce_mod_p(m, q)`, m's
    entries read mod q.
    """
    seq = rank_seq(brseq, hmod.read_module(m).n)
    d = flag_dimension(m.datum, seq)
    degree_bound = (max(m.k * d, 0) if degree_bound is None else
                    read_int(degree_bound, "degree_bound", 0))
    needed = degree_bound + 2
    primes = read_value(tuple, primes, "bad primes")
    if len(primes) < needed:
        raise NotEnoughPrimes(
            f"need {needed} primes for degree bound {degree_bound}")
    used = check_primes(primes[:needed])
    counts = {q: point_count(hmod.reduce_mod_p(m, q), seq) for q in used}
    coeffs = la.lagrange_interpolate(
        [(q, counts[q]) for q in used], degree_bound)
    return PointCountTable(seq, m.k, counts, degree_bound, coeffs,
                           la.eval_poly(coeffs, 1))


def closed_form_flag_count_no_arrows(datum: CartanDatum, k: int, q: int,
                                     brseq) -> int:
    """Exact count for data without arrows: per vertex, the product over
    the layers of the free submodules of each layer's rank in what the
    layers before it leave (`_free_submodule_count`), which is the
    classical flag count times q^((k*c_i - 1) * d_i) with d_i the sum of
    products of distinct layer ranks at that vertex."""
    if read_datum(datum).oriented_pairs():
        raise ValidationError("closed form only applies without arrows")
    k = read_int(k, "k", 1, KTooSmall)
    q = read_int(q, "q", 2)
    seq = rank_seq(brseq, datum.n)
    total = 1
    for i in range(datum.n):
        remaining = sum(r[i] for r in seq)
        for r in seq:
            total *= _free_submodule_count(k * datum.d[i], remaining, r[i], q)
            remaining -= r[i]
    return total
