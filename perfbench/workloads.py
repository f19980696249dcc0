"""The benchmark's workloads: seeded inputs, item streams and correctness gates.

A workload is built from a seed (its set-up) and then yields the items of a
pass in a fixed order.  The runner times `item.run()`, then calls
`item.check(answer)`, which compares the answer with an independent reference
and returns a canonical summary of it.  Checks that need a whole group of
answers run inside the pass generator after the group's last item, before
the next item is issued.  Every failed check raises `GateError`.

The references never come from the code under test: Euler forms, flag
dimensions, Gaussian binomials and closed-form counts are recomputed here
from the raw Cartan data, and canonical decompositions come from the
committed table `reference.json`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

DATA = {
    "A2": ([[2, -1], [-1, 2]], [1, 1], [(0, 1)]),
    "B2": ([[2, -1], [-2, 2]], [2, 1], [(0, 1)]),
    "Kronecker": ([[2, -2], [-2, 2]], [1, 1], [(0, 1)]),
}

# every non-zero rank vector of total at most 3
SMALL_RANKS = ((0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2),
               (3, 0), (0, 3))

REFERENCE_FILE = Path(__file__).with_name("reference.json")

NO_ITEM = object()   # returned by a stream item whose stream is exhausted


class GateError(Exception):
    """An answer differs from its independent reference."""


class SetupError(Exception):
    """The seed did not produce the workload's inputs."""


@dataclass(eq=False)
class Item:
    key: str
    run: Callable[[], object]
    check: Callable[[object], object]
    answer: object = None
    error: Optional[Exception] = None
    value: object = None


def _require(ok: bool, key: str, message: str):
    if not ok:
        raise GateError(f"{key}: {message}")


# --- independent references --------------------------------------------------

def euler(datum_raw, a, b, k: int) -> int:
    """<a, b>_k = sum_i k c_i a_i b_i + sum_{(i,j) in Omega} k c_i C_ij a_j b_i."""
    c, d, omega = datum_raw
    total = sum(k * d[i] * a[i] * b[i] for i in range(len(d)))
    for i, j in omega:
        total += k * d[i] * c[i][j] * a[j] * b[i]
    return total


def flag_dim(datum_raw, seq) -> int:
    return sum(euler(datum_raw, seq[s], seq[t], 1)
               for s in range(len(seq)) for t in range(s + 1, len(seq)))


def gaussian_binomial(n: int, r: int, q: int) -> int:
    num = den = 1
    for t in range(r):
        num *= q ** (n - t) - 1
        den *= q ** (t + 1) - 1
    return num // den


def free_submodules(order: int, r: int, e: int, q: int) -> int:
    """Free rank-e submodules of a free rank-r module over F_q[x]/(x^order)."""
    return q ** ((order - 1) * e * (r - e)) * gaussian_binomial(r, e, q)


def two_step_seqs(r):
    out = []
    for e in itertools.product(*(range(x + 1) for x in r)):
        rest = tuple(x - y for x, y in zip(r, e))
        if any(e) and any(rest):
            out.append((tuple(e), rest))
    return out


def three_step_seqs(r):
    out = []
    for a in itertools.product(*(range(x + 1) for x in r)):
        for b in itertools.product(*(range(x - y + 1) for x, y in zip(r, a))):
            c = tuple(x - y - z for x, y, z in zip(r, a, b))
            if any(a) and any(b) and any(c):
                out.append((tuple(a), tuple(b), c))
    return out


def _fmt(r) -> str:
    return "".join(str(x) for x in r)


def _fmt_seq(seq) -> str:
    return "-".join(_fmt(r) for r in seq)


class Workload:
    """Base: validates the Cartan data every workload uses."""

    name = ""

    def __init__(self, cq, seed: int):
        self.cq = cq
        self.seed = seed
        self.group_checks = 0   # passed checks over a group of answers
        self.data = {
            name: cq.cartan.validate_orientation(
                cq.cartan.validate_cartan(c, d), omega)
            for name, (c, d, omega) in DATA.items()}

    def pass_items(self):
        raise NotImplementedError

    def probe(self) -> dict:
        """Operations on known-defect inputs, run once after the timed phase."""
        return {"attempted": 0, "failed": 0, "errors": {}}


# --- decomp ------------------------------------------------------------------

class Decomp(Workload):
    """Canonical decompositions of small rank vectors by exhaustive scans."""

    name = "decomp"
    LEVELS = ((1, 2), (2, 2), (1, 3))   # (k, p)
    SPACE_LIMIT = 16                    # structure-space points per item

    def __init__(self, cq, seed: int, reference: Optional[dict] = None):
        super().__init__(cq, seed)
        if reference is None:
            reference = json.loads(REFERENCE_FILE.read_text())["decomp"]
        self.reference = {
            name: {tuple(int(x) for x in r.split(",")):
                   tuple(sorted(tuple(part) for part in parts))
                   for r, parts in table.items()}
            for name, table in reference.items()}
        count = cq.hmod.structure_parameter_count
        self.specs = [
            (name, k, p, r)
            for name in DATA for r in SMALL_RANKS for k, p in self.LEVELS
            if p ** count(self.data[name], k, r) <= self.SPACE_LIMIT]

    def pass_items(self):
        decompose = self.cq.gendecomp.canonical_decomposition
        seen: dict = {}
        for name, k, p, r in self.specs:
            key = f"decomp/{name}/r{_fmt(r)}/k{k}/p{p}"
            expected = self.reference[name][r]

            def check(rep, key=key, expected=expected, name=name, p=p, r=r):
                parts = tuple(tuple(x) for x in rep.parts)
                _require(rep.exhaustive, key, "scan not exhaustive")
                _require(rep.criteria_ok, key, "criteria not verified")
                _require(parts == expected, key,
                         f"parts {parts} != reference {expected}")
                _require(seen.setdefault((name, p, r), parts) == parts, key,
                         "parts differ across k")
                return parts

            yield Item(key, lambda d=self.data[name], k=k, p=p, r=r, key=key:
                       decompose(d, k, p, r, seed=(self.seed, key)),
                       check)


# --- flags -------------------------------------------------------------------

@dataclass(eq=False)
class _FlagInstance:
    key: str
    datum_name: str
    module: object
    k: int
    q: int
    seq: tuple


class Flags(Workload):
    """Tangent spaces at flag points and fibers of the reduction map."""

    name = "flags"
    DATA_NAMES = ("A2", "B2")
    QS = (2, 3)
    KS = (2, 3)
    TANGENT_CAP = 10    # leading flag points per (module, sequence)
    FIBER_CAP = 8       # leading reduced flag points per (module, sequence)

    def __init__(self, cq, seed: int):
        super().__init__(cq, seed)
        self.instances = []
        for name in self.DATA_NAMES:
            for q in self.QS:
                for r in SMALL_RANKS:
                    seqs = two_step_seqs(r)
                    if not seqs:
                        continue
                    for k in self.KS:
                        search = cq.homext.find_rigid(
                            self.data[name], k, q, r, trials=200,
                            seed=(seed, name, q, k) + r)
                        if not search.found():
                            raise SetupError(f"no rigid module {name} {r} "
                                             f"k={k} q={q}")
                        for seq in seqs:
                            self.instances.append(_FlagInstance(
                                f"flags/{name}/q{q}/r{_fmt(r)}/k{k}/"
                                f"{_fmt_seq(seq)}", name, search.module, k,
                                q, seq))

    def pass_items(self):
        fv = self.cq.flagvar
        for inst in self.instances:
            expected = euler(DATA[inst.datum_name], inst.seq[0], inst.seq[1],
                             inst.k)
            stream = fv.iter_flags(inst.module, inst.seq)

            def tangent(stream=stream, inst=inst):
                flag = next(stream, None)
                if flag is None:
                    return NO_ITEM
                return fv.tangent_dimension(inst.module, flag)

            def check_tangent(dim, key=inst.key, expected=expected):
                _require(dim == expected, key,
                         f"tangent dimension {dim} != Euler form {expected}")
                return dim

            for t in range(self.TANGENT_CAP):
                item = Item(f"{inst.key}/tangent{t}", tangent, check_tangent)
                yield item
                if item.answer is NO_ITEM or item.error is not None:
                    break
            stream.close()
            yield from self._fibers(inst)

    def _fibers(self, inst):
        fv = self.cq.flagvar
        state = {}

        def fiber():
            if "stream" not in state:
                reduced = self.cq.reduction.reduce(inst.module).module
                state["stream"] = fv.iter_flags(reduced, inst.seq)
            base = next(state["stream"], None)
            if base is None:
                return NO_ITEM
            return fv.fiber_of_reduction(inst.module, base)

        def summarize(fib):
            # checked as a group: the fibers must hold the level-k points
            return (fib.empty, fib.dimension)

        counts = []
        complete = False
        for t in range(self.FIBER_CAP):
            item = Item(f"{inst.key}/fiber{t}", fiber, summarize)
            yield item
            if item.error is not None:
                break
            if item.answer is NO_ITEM:
                complete = True
                break
            counts.append(item.answer.point_count())
        if "stream" in state:
            state["stream"].close()
        if complete:
            total = fv.point_count(inst.module, inst.seq)
            _require(sum(counts) == total, inst.key,
                     f"fibers hold {sum(counts)} points, the level-k "
                     f"variety {total}")
            self.group_checks += 1


# --- count -------------------------------------------------------------------

@dataclass(eq=False)
class _CountModule:
    datum_name: str
    rank: tuple
    k: int
    module: object


class Count(Workload):
    """Point counts of flag varieties of reduced integer-lifted modules."""

    name = "count"
    DATA_NAMES = ("A2", "B2")
    RANKS = ((2, 2), (3, 2), (2, 3))
    KS = (2, 3)
    QS = (2, 3, 5, 7)
    POLY_PRIMES = (2, 3, 5, 7, 11, 13)
    BASE_PRIME = 2
    SEARCH_LIMIT = 6_000    # coupled closure-search size per count
    THREE_STEP_QS = (2, 3)  # 3-step sequences: rank (2, 2), k = 2
    RIGID_ATTEMPTS = 8

    def __init__(self, cq, seed: int):
        super().__init__(cq, seed)
        self.modules = []
        for name in self.DATA_NAMES:
            for r in self.RANKS:
                for k in self.KS:
                    self.modules.append(_CountModule(
                        name, r, k, self._rigid_lift(name, r, k)))
        # ROADMAP 4(b): this lift is rigid mod 3 but not mod 2, so the
        # cross-prime interpolation over it fails
        self.bad_reduction = [
            cq.homext.find_rigid(self.data["B2"], k, 3, (2, 2), trials=200,
                                 seed=0).module
            for k in (1, 2)]

    def _rigid_lift(self, name, r, k):
        hm, homext = self.cq.hmod, self.cq.homext
        for attempt in range(self.RIGID_ATTEMPTS):
            search = homext.find_rigid(self.data[name], k, self.BASE_PRIME, r,
                                       trials=200,
                                       seed=(self.seed, name, k, attempt) + r)
            if search.found() and all(
                    homext.is_rigid(hm.reduce_mod_p(search.module, q))
                    for q in self.QS):
                return search.module
        raise SetupError(f"no lift of {name} {r} k={k} rigid at {self.QS}")

    def _active(self, name, rank, e) -> bool:
        """Some arrow constrains a submodule of rank e (arrows j -> i for the
        oriented pairs (i, j) with non-zero Cartan entry)."""
        c, _, omega = DATA[name]
        return any(c[i][j] and e[j] and e[i] != rank[i] for i, j in omega)

    def _search_size(self, name, rank, k, e, q) -> int:
        if not self._active(name, rank, e):
            return 0
        d = DATA[name][1]
        size = 1
        for v in range(len(rank)):
            size *= free_submodules(k * d[v], rank[v], e[v], q)
        return size

    def _closed_form(self, name, rank, k, seq, q) -> Optional[int]:
        """Exact count where one is known, else None."""
        if name == "A2" and rank == (2, 2) and seq == ((1, 1), (1, 1)):
            return q ** k + q ** (k - 1)
        if len(seq) == 2 and not self._active(name, rank, seq[0]):
            d = DATA[name][1]
            out = 1
            for v in range(len(rank)):
                out *= free_submodules(k * d[v], rank[v], seq[0][v], q)
            return out
        return None

    def _cost(self, inst, seq, q) -> int:
        top = tuple(x - y for x, y in zip(inst.rank, seq[-1]))
        return self._search_size(inst.datum_name, inst.rank, inst.k, top, q)

    def _groups(self):
        for inst in self.modules:
            seqs = two_step_seqs(inst.rank)
            for seq in seqs:
                qs = tuple(q for q in self.QS
                           if self._cost(inst, seq, q) <= self.SEARCH_LIMIT)
                if qs:
                    yield inst, seq, qs
            if inst.rank == (2, 2) and inst.k == 2:
                for seq in three_step_seqs(inst.rank):
                    yield inst, seq, self.THREE_STEP_QS

    def pass_items(self):
        cq = self.cq
        for inst, seq, qs in self._groups():
            name, rank, k = inst.datum_name, inst.rank, inst.k
            gkey = f"count/{name}/r{_fmt(rank)}/k{k}/{_fmt_seq(seq)}"
            d = flag_dim(DATA[name], seq)
            items = {}
            for q in qs:
                expected = self._closed_form(name, rank, k, seq, q)

                def check(count, key=f"{gkey}/q{q}", expected=expected):
                    _require(expected is None or count == expected, key,
                             f"count {count} != closed form {expected}")
                    return count

                item = Item(f"{gkey}/q{q}",
                            lambda q=q: cq.flagvar.point_count(
                                cq.hmod.reduce_mod_p(inst.module, q), seq),
                            check)
                items[q] = item
                yield item
            if any(item.error is not None for item in items.values()):
                continue
            if len(seq) == 2 and not self._active(name, rank, seq[0]):
                continue   # closed-form counts: already checked, no verdicts
            counts = {q: item.answer for q, item in items.items()}

            def check_bundle(report, key=f"{gkey}/bundle", counts=counts,
                             d=d):
                rows = []
                for row in report.rows:
                    q = row["q"]
                    top, bottom = row["count_k"], row["count_k_minus_1"]
                    _require(row["rigid"], key, f"not rigid at q={q}")
                    _require(top == counts[q], key,
                             f"count_k {top} != item count {counts[q]}")
                    _require(top * q ** max(-d, 0) == bottom * q ** max(d, 0),
                             key, f"count ratio at q={q} is not q^{d}")
                    _require(row["ok"], key, f"ratio flag false at q={q}")
                    rows.append((q, top, bottom))
                _require(len(rows) == len(counts), key, "missing rows")
                return tuple(rows)

            yield Item(f"{gkey}/bundle",
                       lambda: cq.flagvar.bundle_ratio_check(
                           inst.module, seq, primes=qs),
                       check_bundle)
            degree = max(k * d, 0)
            needed = self.POLY_PRIMES[:degree + 2]
            if len(seq) != 2 or len(needed) < degree + 2 or any(
                    self._cost(inst, seq, q) > self.SEARCH_LIMIT
                    for q in needed):
                continue

            def check_poly(table, key=f"{gkey}/poly", counts=counts,
                           needed=needed):
                coeffs = tuple(table.polynomial)
                for q in needed:
                    value = sum(c * q ** t for t, c in enumerate(coeffs))
                    _require(table.counts[q] == value, key,
                             f"polynomial misses its count at q={q}")
                    if q in counts:
                        _require(table.counts[q] == counts[q], key,
                                 f"count at q={q} differs from the item")
                    want = self._closed_form(name, rank, k, seq, q)
                    _require(want is None or value == want, key,
                             f"polynomial at q={q} != closed form {want}")
                return coeffs

            yield Item(f"{gkey}/poly",
                       lambda: cq.flagvar.counting_polynomial(
                           inst.module, seq, primes=self.POLY_PRIMES),
                       check_poly)

    def probe(self) -> dict:
        """The ROADMAP 4(b) counting verdicts, which fail on the seed code."""
        errors: dict = {}
        for module in self.bad_reduction:
            try:
                self.cq.flagvar.counting_polynomial(module, ((1, 1), (1, 1)))
            except self.cq.errors.CartanQuiverError as exc:
                errors[type(exc).__name__] = errors.get(
                    type(exc).__name__, 0) + 1
        return {"attempted": len(self.bad_reduction),
                "failed": sum(errors.values()), "errors": errors}


WORKLOADS = {cls.name: cls for cls in (Decomp, Flags, Count)}
