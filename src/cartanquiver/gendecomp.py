"""Krull-Schmidt decomposition and canonical decomposition of rank vectors.

Explicit modules are split with Fitting's lemma: for an endomorphism phi,
M = ker(phi^N) + im(phi^N) is a direct decomposition, so any phi that is
neither nilpotent nor invertible splits M.  Both pieces are restrictions
of M to those invariant subspaces in their RREF bases (`hmod._restrict`),
valid by construction since phi has passed the substitution check of a
homomorphism, so no piece is validated again.  The one claim of a split
that is not true by construction, that im(phi^N) and ker(phi^N) are
complementary, is checked at every vertex where the split is made
(`_fitting_split`).  A module with one non-zero vertex whose loop is a
single nilpotent Jordan block, as every rank-one piece E_i is, has
End(M) = F_p[x]/(x^d), a local ring: it is indecomposable, with an
exhaustive certificate at any budget, and no End(M) is solved for it
(`_local_end`).  For every other module a split is searched in three
steps, each run only when the one before it has not decided:

1. Fitting splits along the End(M) basis elements, shifted by scalars.
   Each candidate f is raised to the Fitting power at all of its shifts
   in one stacked power per vertex, and a candidate with a nilpotent shift
   f - lam is skipped before any rank is taken: every other shift
   f - mu = (f - lam) + (lam - mu) is a unit plus a commuting nilpotent,
   so no shift of f splits M.
2. When p^dim End(M) is at most IDEMPOTENT_BUDGET, an exhaustive scan
   of End(M) for a proper idempotent.  M decomposes exactly when one
   exists, so the completed scan is final: a split, or an exhaustive
   certificate of indecomposability.
3. Only past that budget, Fitting splits along SPLIT_TRIALS random
   endomorphisms with shifts; when none splits, indecomposability is
   Monte Carlo.  SPLIT_TRIALS therefore matters only when p^dim End(M)
   exceeds the budget.

The canonical decomposition of a rank vector is found by decomposing
sampled (or, for small parameter spaces, all) modules of that rank and
ranking the observed multisets of part rank vectors by frequency; the
returned type is the highest-ranked one that passes the two criteria
characterizing the canonical decomposition - every part a Schur root,
generic Ext vanishing between parts in both orders - since raw frequency
can tie or mislead over tiny fields.  Schur-ness itself is decided by the
splitting form of the same characterization: r is a Schur root exactly
when no decomposition r = s + t has vanishing generic Ext both ways.
One table serves a whole decomposition call (its Krull-Schmidt scan,
Schur checks, Ext checks and splitting recursion) and is dropped with it.
It holds three things.  Generic Ext answers: a pair whose Ext scan is
exhaustive has a minimum that does not depend on the seed and is asked
once, a sampled pair is asked with its own seed.  Structure spaces: the
modules of each exhaustive space of at most PAIR_SPACE_BUDGET points are
built once, in scan order, and every scan of the call reads them.  Split
verdicts: a piece that came out of a split keeps its `_find_split` result
under its matrices when the result is the same for every seed, and every
module the call decides is looked up there first.  Each module of an
exhaustive scan is decided once per call, too: the Krull-Schmidt census
of the scan (a module is a hit when its first split search finds no split)
is the Schur evidence of the part equal to r wherever its verdict holds
for every seed, that is when it came from a local End or from a completed
idempotent scan.  Only the points whose verdict depends on the seed are
decided again, with the seeds of the rescan of `is_schur_root`.
Every report carries its sample counts, seeds and certainty level.

The budgets (SPLIT_TRIALS, IDEMPOTENT_BUDGET, PAIR_SPACE_BUDGET and
hmod.STRUCTURE_SPACE_BUDGET) are read at each call, so setting one reaches
the scans nested in others too.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import exactlinalg as la
from . import hmod, homext
from .cartan import CartanDatum, RankVector, read_int
from .errors import InternalCheckError
from .exactlinalg import Subspace
from .hmod import HModule

SPLIT_TRIALS = 64
IDEMPOTENT_BUDGET = 2 ** 16
PAIR_SPACE_BUDGET = 2 ** 12
DEFAULT_SAMPLES = 200
# primes up to which a Fitting search tries every scalar shift; past it,
# 0 and seven random ones
ALL_SHIFTS = 7

EXHAUSTIVE = "exhaustive"
MONTE_CARLO = "monte_carlo"


def _fitting_split(m: HModule, powers) -> Optional[tuple]:
    """Subspace pair (im, ker) of the Fitting powers f_i^N (one per vertex,
    N >= dim M) when they split M non-trivially; InternalCheckError unless
    their RREF bases stack to rank d_i at every vertex (Fitting's lemma)."""
    p = m.p
    ims = tuple(la.image(fi, p) for fi in powers)
    if sum(u.dim for u in ims) in (0, m.total_dim()):
        return None
    kers = tuple(Subspace.from_rows(la.kernel_basis_matrix(fi, p),
                                    m.dims[i], p)
                 for i, fi in enumerate(powers))
    for i, (u, v) in enumerate(zip(ims, kers)):
        if la.rank(np.vstack([u.basis, v.basis]), p) != m.dims[i]:
            raise InternalCheckError(
                f"Fitting split: im, ker not complementary at vertex {i + 1}")
    return ims, kers


def _structure_constants(basis: homext.HomBasis, p: int) -> np.ndarray:
    """table[a, b]: the coordinates of basis element a after element b,
    all dim^2 products composed at once on per-vertex stacks and read off
    in one `coords_of`."""
    stacks = homext._unflatten(basis.source.dims, basis.target.dims,
                               basis.vec_basis)
    return basis.coords_of(homext.compose([x[:, None] for x in stacks],
                                          [x[None] for x in stacks], p))


def _scan_idempotents(m: HModule, basis: homext.HomBasis
                      ) -> Optional[tuple]:
    """Split along a proper idempotent of End(M), or None if there is none.

    Visits all p^dim elements of End(M); the caller bounds that number.
    """
    p = m.p
    dim = basis.dim
    table = _structure_constants(basis, p)
    one = homext.identity_hom(m)
    for digits in la.digit_chunks(p, dim):
        # dim^2 terms, each below p^3: under 2^63 for dim <= 304 when
        # p <= la.MAX_PRIME, and no budget admits a scan of p^305 points
        squares = np.einsum("na,nb,abc->nc", digits, digits, table) % p
        hits = np.all(squares == digits, axis=1)
        for idx in np.nonzero(hits)[0]:
            if not digits[idx].any():
                continue
            e = basis.element_from_coeffs(digits[idx])
            # the identity is one of the few idempotents: test it directly
            if all(np.array_equal(ei, oi) for ei, oi in zip(e, one)):
                continue
            return _fitting_search(m, [e], [0])
    return None


def _fitting_search(m: HModule, candidates, shifts) -> Optional[tuple]:
    """First Fitting split among the shifts f - lam of the candidates f,
    candidate by candidate and shift by shift.

    Each candidate is raised at all of its shifts in one stacked power
    per vertex.  When some shift f - lam is nilpotent, no shift splits M
    and the candidate is skipped: every other shift f - mu =
    (f - lam) + (lam - mu) is a unit plus a commuting nilpotent, hence
    invertible.  Ranks and subspaces are computed for the other candidates
    only."""
    p = m.p
    power = max(m.total_dim(), 1)
    lams = np.asarray(shifts, dtype=np.int64).reshape(-1, 1, 1)
    scalars = [lams * la.identity(d) for d in m.dims]
    for f in candidates:
        stacks = [la.matpow(fi - lam, power, p)
                  for fi, lam in zip(f, scalars)]
        alive = np.zeros(len(lams), dtype=bool)
        for stack in stacks:
            alive |= stack.reshape(len(lams), -1).any(axis=1)
        if not alive.all():
            continue
        for t in range(len(lams)):
            split = _fitting_split(m, [stack[t] for stack in stacks])
            if split is not None:
                return split
    return None


def _local_end(m: HModule) -> bool:
    """Whether M has exactly one non-zero vertex and its loop is a single
    nilpotent Jordan block.  Then End(M) is the centralizer of that block,
    F_p[x]/(x^d), a local ring, so M is indecomposable.  The loop is
    nilpotent by (H1), so it is one block exactly when its rank is d - 1;
    a loop in standard form (`HModule.jordan_orders`) is read without an
    elimination."""
    support = [i for i, d in enumerate(m.dims) if d]
    if len(support) != 1:
        return False
    i = support[0]
    order = m.jordan_orders[i]
    return (order == m.dims[i] if order
            else la.rank(m.eps[i], m.p) == m.dims[i] - 1)


def _find_split(m: HModule, seed, keep: bool = False):
    """Returns (split or None, certainty of a negative answer, whether the
    answer is the same for every seed).

    A local End decides at once (`_local_end`).  Otherwise the three steps
    of the module docstring: basis Fitting splits, then the idempotent scan
    when p^dim End(M) <= IDEMPOTENT_BUDGET, else the SPLIT_TRIALS random
    Fitting trials.  Within the budget the answer is whether M decomposes,
    whatever the seed; past it, whether a split turns up depends on the
    seed.

    Inside a decomposition call the result is first looked up in the
    call's table under the `content` key of M.  With `keep` (a piece that
    came out of a split) it is stored there when the whole result, split
    included, is the same for every seed: within the budget, when every
    shift is tried (p <= ALL_SHIFTS) or no split exists.
    """
    if _local_end(m):
        return None, EXHAUSTIVE, True
    table = _call_table(m.datum, m.k, m.p)
    if table is None:
        return _search_split(m, seed)
    key = m.content
    found = table.splits.get(key)
    if found is None:
        found = _search_split(m, seed)
        split, _, seed_free = found
        if keep and seed_free and (m.p <= ALL_SHIFTS or split is None):
            table.splits[key] = found
    return found


def _search_split(m: HModule, seed):
    """`_find_split` of a module whose End is not local: steps 1-3 of the
    module docstring."""
    p = m.p
    basis = homext.hom_space(m, m)
    in_budget = p ** basis.dim <= IDEMPOTENT_BUDGET
    shifts = range(p) if p <= ALL_SHIFTS else [0] + list(
        la.rng_from((seed, "shift")).integers(1, p, size=7))
    split = _fitting_search(m, basis.elements, shifts)
    if split is not None:
        return split, EXHAUSTIVE, in_budget
    if in_budget:
        return _scan_idempotents(m, basis), EXHAUSTIVE, True
    rng = la.rng_from(seed)
    randoms = (basis.element_from_coeffs(rng.integers(0, p, size=basis.dim))
               for _ in range(SPLIT_TRIALS))
    split = _fitting_search(m, randoms, shifts)
    return split, EXHAUSTIVE if split is not None else MONTE_CARLO, False


@dataclass(frozen=True, eq=False)
class IndecomposabilityResult:
    indecomposable: bool
    certainty: str

    def __bool__(self) -> bool:
        return self.indecomposable


def is_indecomposable(m: HModule, seed=0) -> IndecomposabilityResult:
    """Decide whether M is indecomposable; zero modules count as
    decomposable (empty sum).

    A module with a local End (one non-zero vertex, its loop a single
    Jordan block) is indecomposable, exhaustively at any budget.  For the
    others a split is searched along the End(M) basis first, then by the
    exhaustive idempotent scan when p^dim End(M) <= IDEMPOTENT_BUDGET, and
    only past that budget along SPLIT_TRIALS random endomorphisms.  Within
    the budget a positive answer is exhaustive; past it, a positive answer
    is Monte Carlo.  A negative answer is always exhaustive: it exhibits a
    split, checked at every vertex (`_fitting_split`).
    """
    if m.total_dim() == 0:
        return IndecomposabilityResult(False, EXHAUSTIVE)
    split, certainty, _ = _find_split(m, seed)
    if split is not None:
        return IndecomposabilityResult(False, EXHAUSTIVE)
    return IndecomposabilityResult(True, certainty)


@dataclass(frozen=True, eq=False)
class KrullSchmidtResult:
    parts: tuple[tuple[HModule, int], ...]
    certainty: str
    # whether M is indecomposable, by the first split search of M, when
    # that verdict is the same for every seed; None when it is not
    _indecomposable: Optional[bool] = field(default=None, repr=False)

    def rank_multiset(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for mod, mult in self.parts:
            out.extend([tuple(hmod.rank_vector(mod))] * mult)
        return tuple(sorted(out))

    def summand_count(self) -> int:
        return sum(mult for _, mult in self.parts)


def krull_schmidt(m: HModule, seed=0) -> KrullSchmidtResult:
    """Split M into indecomposables and group them up to isomorphism.

    Each piece is split as in `is_indecomposable`: a piece with a local
    End (one non-zero vertex, its loop a single Jordan block) is kept
    whole, exhaustively at any budget; the others along the End basis,
    then by the idempotent scan when p^dim End <= IDEMPOTENT_BUDGET, and
    only past that budget along SPLIT_TRIALS random endomorphisms, so
    SPLIT_TRIALS matters only for pieces whose scan is over budget.
    Nothing is checked at the end, as every step is exact: each Fitting
    split is checked where it is made (`_fitting_split`), with f a sum of
    substitution-checked Hom basis elements, so im f^N and ker f^N are
    invariant; each piece is `hmod._restrict`, valid by construction; and
    a grouping "yes" of `homext.are_isomorphic` carries its invertible
    homomorphism.  Certainty is the weakest certificate among the parts.
    Inside a decomposition call, a piece equal to a piece decided before
    in the call reuses that decision (`_find_split`).
    """
    pieces: list[HModule] = []
    certainty = EXHAUSTIVE
    indecomposable = None
    stack = [hmod.read_module(m)]
    depth = 0
    while stack:
        cur = stack.pop()
        if cur.total_dim() == 0:
            continue
        split, cert, seed_free = _find_split(cur, (seed, depth),
                                             keep=depth > 0)
        if depth == 0 and seed_free:
            indecomposable = split is None
        depth += 1
        if split is None:
            if cert == MONTE_CARLO:
                certainty = MONTE_CARLO
            pieces.append(cur)
            continue
        for half in split:
            stack.append(hmod._restrict(cur, [u.basis for u in half],
                                        [u.pivots for u in half]))
    groups: list[list[HModule]] = []
    for piece in pieces:
        for group in groups:
            iso = homext.are_isomorphic(group[0], piece, seed=(seed, "group"))
            if iso.isomorphic:
                group.append(piece)
                break
            if not iso.certain:
                certainty = MONTE_CARLO
        else:
            groups.append([piece])
    parts = tuple((g[0], len(g)) for g in groups)
    return KrullSchmidtResult(parts, certainty, indecomposable)


# --- generic invariants of rank vectors --------------------------------------

def ext_generic(datum: CartanDatum, k: int, p: int, r, s,
                samples: int = DEFAULT_SAMPLES, seed=0) -> int:
    """Minimum of dim Ext^1(M, N) over sampled pairs; exhaustive when the
    joint parameter space has at most PAIR_SPACE_BUDGET points, building
    each module of the two spaces once (once per call inside a
    decomposition call, whose table keeps them).  An upper bound for the
    generic value that can only decrease with more samples; zero is
    exact."""
    r = RankVector(r)
    s = RankVector(s)
    samples = read_int(samples, "samples", 1)
    if _pair_exhaustive(datum, k, p, r, s):
        table = _call_table(datum, k, p) or _CallTable(datum, k, p, samples)
        pairs = ((mod_m, mod_n)
                 for mod_m in table.space(r)
                 for mod_n in table.space(s))
    else:
        pairs = ((hmod.random_locally_free(datum, k, p, r, (seed, "m", t)),
                  hmod.random_locally_free(datum, k, p, s, (seed, "n", t)))
                 for t in range(samples))
    best = None
    for mod_m, mod_n in pairs:
        val = homext.ext1_dim(mod_m, mod_n)
        best = val if best is None else min(best, val)
        if best == 0:
            return 0
    return best


def _pair_exhaustive(datum: CartanDatum, k: int, p: int, r, s) -> bool:
    """Whether ext_generic scans every pair of (r, s): their joint
    parameter space has at most PAIR_SPACE_BUDGET points."""
    return p ** (hmod.structure_parameter_count(datum, k, r)
                 + hmod.structure_parameter_count(datum, k, s)
                 ) <= PAIR_SPACE_BUDGET


class _Space:
    """The modules of an exhaustive structure space in scan order, each
    built when an iteration first reaches it and kept: any number of
    iterations, nested ones too, share the built modules."""

    def __init__(self, modules):
        self._fresh = modules
        self._built: list[HModule] = []

    def __iter__(self):
        t = 0
        while True:
            if t == len(self._built):
                mod = next(self._fresh, None)
                if mod is None:
                    return
                self._built.append(mod)
            yield self._built[t]
            t += 1


@dataclass(eq=False)
class _CallTable:
    """What one canonical_decomposition or is_schur_root call over
    (datum, k, p) shares; dropped when the call returns.

    `known`: the generic Ext questions, each asked of ext_generic once.  An
    exhaustive pair's minimum runs over all pairs and does not depend on
    the seed, so every question about the pair shares one answer.  A
    sampled pair's answer depends on its seed: it is kept under
    (r, s, seed) and serves only the same question asked again.

    `spaces`: the modules of each exhaustive structure space of at most
    PAIR_SPACE_BUDGET points, built once in scan order and read by the Ext
    scans, the Krull-Schmidt scan and the Schur scans.

    `splits`: the `_find_split` results of the pieces split off in the
    call that are the same for every seed, under the pieces' `content`."""

    datum: CartanDatum
    k: int
    p: int
    samples: int
    known: dict = field(default_factory=dict)
    spaces: dict = field(default_factory=dict)
    splits: dict = field(default_factory=dict)

    def ext(self, r, s, seed) -> int:
        r, s = tuple(r), tuple(s)
        args = (self.datum, self.k, self.p, r, s)
        key = (r, s) if _pair_exhaustive(*args) else (r, s, seed)
        if key not in self.known:
            self.known[key] = ext_generic(*args, samples=self.samples,
                                          seed=seed)
        return self.known[key]

    def space(self, r) -> _Space:
        """The shared modules of r, whose space the caller has found to
        have at most PAIR_SPACE_BUDGET points: every point of
        `hmod.iter_structure_matrices`, in its order."""
        r = tuple(r)
        if r not in self.spaces:
            self.spaces[r] = _Space(
                hmod.from_structure_matrices(point) for point in
                hmod.iter_structure_matrices(self.datum, self.k, self.p, r))
        return self.spaces[r]

    def structure_space(self, r, seed):
        """hmod.structure_space of r with the call's samples, or the shared
        modules when the space has at most PAIR_SPACE_BUDGET points and
        hmod.STRUCTURE_SPACE_BUDGET."""
        size = self.p ** hmod.structure_parameter_count(self.datum, self.k,
                                                        r)
        if size <= min(hmod.STRUCTURE_SPACE_BUDGET, PAIR_SPACE_BUDGET):
            return True, self.space(r)
        return hmod.structure_space(self.datum, self.k, self.p, r,
                                    self.samples, seed)

    def undecided(self, r, census):
        """Per point of the exhaustive space of r, in scan order: its module
        where `census` holds no verdict, else None.  The shared modules
        serve when the call keeps them; otherwise only those points are
        built."""
        shared = self.spaces.get(tuple(r))
        if shared is not None:
            return (None if verdict is not None else mod
                    for verdict, mod in zip(census, shared))
        points = hmod.iter_structure_matrices(self.datum, self.k, self.p, r)
        return (None if verdict is not None
                else hmod.from_structure_matrices(point)
                for verdict, point in zip(census, points))

    @contextlib.contextmanager
    def active(self):
        """Make this the table of the running call: krull_schmidt,
        is_indecomposable and ext_generic read it until the block ends."""
        token = _CALL.set(self)
        try:
            yield self
        finally:
            _CALL.reset(token)


# the table of the decomposition call that is running, if any
_CALL: contextvars.ContextVar = contextvars.ContextVar("gendecomp_call",
                                                       default=None)


def _call_table(datum: CartanDatum, k: int, p: int) -> Optional[_CallTable]:
    """The running call's table when it is over (datum, k, p)."""
    table = _CALL.get()
    if table is not None and table.datum is datum and (table.k, table.p) == (
            k, p):
        return table
    return None


@dataclass(frozen=True, eq=False)
class SchurRootEstimate:
    is_schur: bool
    rate: float
    samples: int
    exhaustive: bool
    certainty: str
    blocking_split: Optional[tuple] = None


def _vanishing_split(table: _CallTable, r: RankVector, seed
                     ) -> Optional[tuple]:
    """A splitting r = s + t with generic Ext vanishing both ways, if any.

    Such a splitting exists exactly when r is not a Schur root: the union
    of the canonical decompositions of s and t is then a Schur-part,
    pairwise-Ext-vanishing decomposition of r, and conversely a
    non-trivial canonical decomposition provides the splitting (Ext is
    additive over direct sums).
    """
    seen = set()
    for s in _proper_subvectors(r):
        key = tuple(min(s, tuple(r - RankVector(s))))
        if key in seen:
            continue
        seen.add(key)
        t = r - RankVector(s)
        if table.ext(s, t, (seed, "st") + tuple(s)) != 0:
            continue
        if table.ext(t, s, (seed, "ts") + tuple(s)) != 0:
            continue
        return (tuple(s), tuple(t))
    return None


def _proper_subvectors(r: RankVector):
    for s in itertools.product(*(range(x + 1) for x in r)):
        if any(s) and s != tuple(r):
            yield s


def is_schur_root(datum: CartanDatum, k: int, p: int, r,
                  samples: int = DEFAULT_SAMPLES, seed=0
                  ) -> SchurRootEstimate:
    """Decide Schur-ness through the splitting characterization and report
    the observed indecomposability rate as evidence.

    The raw rate is a poor discriminator over tiny fields (the generic
    locus of F_2-points can be a minority even when dense), so the verdict
    comes from searching for a splitting r = s + t with vanishing generic
    Ext in both directions; none exists iff r is a Schur root.  The rate
    over sampled (or, for small spaces, all) modules is still reported.
    """
    r = RankVector(r)
    samples = read_int(samples, "samples", 1)
    table = _CallTable(datum, k, p, samples)
    with table.active():
        return _schur_root(table, r, seed)


def _schur_root(table: _CallTable, r: RankVector, seed, census=None
                ) -> SchurRootEstimate:
    """`is_schur_root` of r, asking its Ext questions of `table` and
    reading its modules off it.

    `census`, when given, holds the verdict of each point of the
    exhaustive structure space of r, in scan order: whether it is
    indecomposable, when that holds for every seed, else None.  Those
    verdicts are evidence as they stand; only the points without one are
    built (or read off the table) and decided, with the seeds of the
    scan."""
    if census is None:
        exhaustive, modules = table.structure_space(r, seed)
        census = itertools.repeat(None)
    else:
        exhaustive, modules = True, table.undecided(r, census)
    if r.total() == 0:
        return SchurRootEstimate(False, 0.0, 0, True, EXHAUSTIVE)
    split = _vanishing_split(table, r, (seed, "split"))
    certainty = EXHAUSTIVE
    verdicts = []
    for t, (verdict, mod) in enumerate(zip(census, modules)):
        if verdict is None:
            res = is_indecomposable(
                mod, seed=(seed, t) if exhaustive else (seed, "ind", t))
            if res.certainty == MONTE_CARLO:
                certainty = MONTE_CARLO
            verdict = bool(res)
        verdicts.append(verdict)
    return SchurRootEstimate(split is None,
                             sum(verdicts) / max(len(verdicts), 1),
                             len(verdicts), exhaustive, certainty, split)


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    """Most frequent decomposition type plus the evidence behind it."""

    rank: RankVector
    parts: tuple[tuple[int, ...], ...]          # sorted multiset
    p: int
    k: int
    samples: int
    exhaustive: bool
    majority_fraction: float
    seed: object
    schur_checks: tuple = ()
    ext_checks: tuple = ()
    criteria_ok: bool = True
    certainty: str = EXHAUSTIVE

    def to_dict(self) -> dict:
        return {
            "rank": list(self.rank),
            "parts": [list(p) for p in self.parts],
            "p": self.p,
            "k": self.k,
            "samples": self.samples,
            "exhaustive": self.exhaustive,
            "majority_fraction": self.majority_fraction,
            "seed": repr(self.seed),
            "schur_checks": [dict(c) for c in self.schur_checks],
            "ext_checks": [dict(c) for c in self.ext_checks],
            "criteria_ok": self.criteria_ok,
            "certainty": self.certainty,
        }


def canonical_decomposition(datum: CartanDatum, k: int, p: int, r,
                            samples: int = DEFAULT_SAMPLES, seed=0
                            ) -> DecompositionReport:
    """Estimate the canonical decomposition of r and verify both criteria.

    The decomposition type of each sampled module is its Krull-Schmidt rank
    multiset; among observed types (plus a splitting-recursion fallback) the
    most frequent one passing both criteria is returned: (i) every part a
    Schur root, (ii) generic Ext vanishing between parts in both orders.
    Criterion failures flip criteria_ok instead of raising.  Note that
    hmod.STRUCTURE_SPACE_BUDGET makes scans exhaustive up to 2**22
    structure points, which can take a while near the limit.
    """
    r = RankVector(r)
    samples = read_int(samples, "samples", 1)
    table = _CallTable(datum, k, p, samples)
    with table.active():
        return _decompose(table, r, seed)


def _decompose(table: _CallTable, r: RankVector, seed
               ) -> DecompositionReport:
    """`canonical_decomposition` of r; one table serves the scan, the Schur
    checks, the Ext checks and the splitting recursion of the call."""
    datum, k, p = table.datum, table.k, table.p
    exhaustive, modules = table.structure_space(r, seed)
    if r.total() == 0:
        return DecompositionReport(r, (), p, k, 0, True, 1.0, seed)
    counter: collections.Counter = collections.Counter()
    certainty = EXHAUSTIVE
    census = []
    for t, mod in enumerate(modules):
        ks = krull_schmidt(
            mod, seed=(seed, t) if exhaustive else (seed, "ks", t))
        if ks.certainty == MONTE_CARLO:
            certainty = MONTE_CARLO
        counter[ks.rank_multiset()] += 1
        census.append(ks._indecomposable)
    count = sum(counter.values())
    # the scan's own verdicts that hold for every seed are Schur evidence
    # of r as they stand: the rescan of is_schur_root would find the same
    if not exhaustive:
        census = None
    # Frequency alone can tie or even mislead on tiny fields (a codimension-1
    # stratum can hold most F_2-points), while the two criteria characterize
    # the canonical decomposition exactly.  Walk the observed types by
    # frequency, with the splitting-recursion type appended as a fallback
    # candidate, and return the first type the criteria certify; if none
    # passes, report the raw majority with criteria_ok = False.
    schur_cache: dict = {}

    def evaluate(parts):
        schur_checks = []
        ok = True
        for part in sorted(set(parts)):
            if part not in schur_cache:
                schur_cache[part] = _schur_root(
                    table, RankVector(part), (seed, "schur", part),
                    census if part == tuple(r) else None)
            est = schur_cache[part]
            schur_checks.append({"part": part, "is_schur": est.is_schur,
                                 "rate": est.rate,
                                 "exhaustive": est.exhaustive})
            ok = ok and est.is_schur
        ext_checks = []
        for a in range(len(parts)):
            for b in range(len(parts)):
                if a == b:
                    continue
                val = table.ext(parts[a], parts[b],
                                (seed, "ext", parts[a], parts[b]))
                ext_checks.append({"from": parts[a], "to": parts[b],
                                   "ext_min": val})
                ok = ok and val == 0
        return ok, tuple(schur_checks), tuple(ext_checks)

    ranked = counter.most_common()
    recursed = _splitting_decomposition(table, r, (seed, "rec"))
    if recursed not in counter:
        ranked = ranked + [(recursed, 0)]
    evaluated = []
    for parts, hits in ranked:
        if tuple(_multiset_sum(parts, datum.n)) != tuple(r):
            raise InternalCheckError(
                "decomposition parts do not sum to input")
        evaluated.append((parts, hits, *evaluate(parts)))
        if evaluated[-1][2]:
            break
    parts, hits, ok, schur_checks, ext_checks = (
        evaluated[-1] if evaluated[-1][2] else evaluated[0])
    return DecompositionReport(
        r, parts, p, k, count, exhaustive, hits / max(count, 1), seed,
        schur_checks, ext_checks, ok, certainty)


def _multiset_sum(parts, n: int) -> RankVector:
    total = RankVector.zero(n)
    for part in parts:
        total = total + RankVector(part)
    return total


def _splitting_decomposition(table: _CallTable, r: RankVector, seed
                             ) -> tuple[tuple[int, ...], ...]:
    """Refine r along Ext-vanishing splittings until all parts are Schur."""
    split = _vanishing_split(table, r, seed)
    if split is None:
        return (tuple(r),)
    s, t = split
    left = _splitting_decomposition(table, RankVector(s), (seed, "l"))
    right = _splitting_decomposition(table, RankVector(t), (seed, "r"))
    return tuple(sorted(left + right))


@dataclass(frozen=True, eq=False)
class KIndependenceReport:
    rank: RankVector
    p: int
    k_max: int
    reports: tuple[DecompositionReport, ...]
    agree: bool

    def to_dict(self) -> dict:
        return {
            "rank": list(self.rank),
            "p": self.p,
            "k_max": self.k_max,
            "reports": [r.to_dict() for r in self.reports],
            "agree": self.agree,
        }


def k_independence_check(datum: CartanDatum, p: int, r, k_max: int,
                         samples: int = DEFAULT_SAMPLES, seed=0
                         ) -> KIndependenceReport:
    """Canonical decompositions for k = 1..k_max must agree as multisets."""
    k_max = read_int(k_max, "k_max", 1)
    reports = tuple(
        canonical_decomposition(datum, k, p, r, samples=samples,
                                seed=(seed, k))
        for k in range(1, k_max + 1))
    types = {rep.parts for rep in reports}
    return KIndependenceReport(RankVector(r), p, k_max, reports,
                               len(types) <= 1)
