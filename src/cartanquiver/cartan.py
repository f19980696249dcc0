"""Symmetrizable Cartan data, orientations and the associated quiver.

A datum consists of a symmetrizable generalized Cartan matrix C (2 on the
diagonal, non-positive off the diagonal), a symmetrizer D = diag(c_1..c_n)
with c_i * c_ij = c_j * c_ji, and an acyclic orientation Omega of the pairs
with c_ij < 0.  The derived quantities g_ij = |gcd(c_ij, c_ji)| and
f_ij = |c_ij| / g_ij are stored on the datum.  The whole family of algebras
indexed by k >= 1 shares one datum: every operation that depends on the
symmetrizer takes k separately and applies k*D on the fly.

Vertices are 1-indexed in all file I/O and error messages, 0-indexed in
code.

The readers of outside input live here: `integers` and `read_value` for
entries, `read_int` for every integer parameter with a lower bound (a
level below 1 raises KTooSmall), and `rank_seq` for every rank sequence
brseq (a non-sequence or a negative entry raises ValidationError).
"""

from __future__ import annotations

import graphlib
import json
import math
from dataclasses import dataclass
from operator import index
from typing import Iterable, Optional, Sequence

from .errors import (
    BothDirections,
    CycleInOrientation,
    DiagonalNotTwo,
    KTooSmall,
    LengthMismatch,
    MissingPair,
    NonPositiveSymmetrizer,
    PositiveOffDiagonal,
    SymmetrizerMismatch,
    ValidationError,
)


class RankVector(tuple):
    """A tuple of non-negative integers, one per vertex.

    Componentwise addition and comparison; the dimension vector of a
    locally free module with this rank is (k*c_1*r_1, ..., k*c_n*r_n).
    """

    def __new__(cls, entries: Iterable[int]):
        vals = read_value(integers, entries, "bad rank vector")
        if any(x < 0 for x in vals):
            raise ValidationError(f"rank vector must be >= 0, got {vals}")
        return super().__new__(cls, vals)

    def __add__(self, other):
        self._match(other)
        return RankVector(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        self._match(other)
        return RankVector(a - b for a, b in zip(self, other))

    def __le__(self, other):
        self._match(other)
        return all(a <= b for a, b in zip(self, other))

    def __ge__(self, other):
        return RankVector(other) <= self

    def _match(self, other):
        if len(self) != len(other):
            raise LengthMismatch(f"length {len(self)} vs {len(other)}")

    def total(self) -> int:
        return sum(self)

    def dims(self, datum: "CartanDatum", k: int) -> tuple[int, ...]:
        """Dimension vector (k * c_i * r_i)."""
        return tuple(k * c * r for c, r in zip(datum.d, self))

    @staticmethod
    def unit(n: int, i: int) -> "RankVector":
        return RankVector(1 if t == i else 0 for t in range(n))

    @staticmethod
    def zero(n: int) -> "RankVector":
        return RankVector([0] * n)


@dataclass(frozen=True)
class CartanDatum:
    """Validated Cartan matrix, symmetrizer and (optional) orientation."""

    n: int
    c: tuple[tuple[int, ...], ...]       # Cartan matrix, row major
    d: tuple[int, ...]                   # symmetrizer diagonal
    omega: Optional[frozenset[tuple[int, int]]] = None

    def g(self, i: int, j: int) -> int:
        return abs(math.gcd(self.c[i][j], self.c[j][i]))

    def f(self, i: int, j: int) -> int:
        return abs(self.c[i][j]) // self.g(i, j)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Unordered pairs {i, j} with c_ij < 0, as sorted tuples."""
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.c[i][j] < 0]

    def oriented_pairs(self) -> list[tuple[int, int]]:
        if self.omega is None:
            raise ValidationError("datum has no orientation attached")
        return sorted(self.omega)


def integers(values) -> tuple[int, ...]:
    """The entries as ints by operator.index, the one integer reader: 1.5
    or "2" raises TypeError (ValidationError under read_value)."""
    return tuple(map(index, values))


def read_value(convert, value, what: str):
    """convert(value) for file and config input, with any failure raised
    as a ValidationError that starts with `what`."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ValidationError(f"{what}: {exc}") from exc


def read_int(value, what: str, least: int, error=ValidationError) -> int:
    """value as an int by operator.index, the one reader of an integer
    parameter with a lower bound: a non-integer (1.5, 2.0, "2") raises
    ValidationError("bad {what}: ..."), and a value below least raises
    error("{what} must be >= {least}, got {value}"), KTooSmall for a
    level."""
    try:
        value = index(value)
    except TypeError as exc:
        raise ValidationError(f"bad {what}: {exc}") from exc
    if value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    return value


def rank_seq(brseq, n: int) -> tuple[RankVector, ...]:
    """brseq as a non-empty sequence of rank vectors of length n, the one
    reader of a rank sequence: a brseq that is not a sequence, or a
    negative or non-integer entry, raises ValidationError, and an empty
    sequence or a vector of another length LengthMismatch."""
    seq = tuple(RankVector(r) for r in read_value(tuple, brseq, "bad brseq"))
    if not seq:
        raise LengthMismatch("brseq must be non-empty")
    if any(len(r) != n for r in seq):
        raise LengthMismatch(f"brseq needs rank vectors of length {n}")
    return seq


def validate_cartan(c, d) -> CartanDatum:
    """Check the axioms of a symmetrizable Cartan matrix with symmetrizer.
    Entries that are not integers raise ValidationError."""
    rows = read_value(lambda v: [integers(row) for row in v], c,
                      "bad Cartan matrix")
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValidationError("Cartan matrix must be square")
    dd = read_value(integers, d, "bad symmetrizer")
    if len(dd) != n:
        raise LengthMismatch(f"symmetrizer length {len(dd)} != {n}")
    if any(x <= 0 for x in dd):
        raise NonPositiveSymmetrizer(f"symmetrizer must be positive: {dd}")
    for i in range(n):
        if rows[i][i] != 2:
            raise DiagonalNotTwo(f"c_{i + 1}{i + 1} = {rows[i][i]} != 2")
        for j in range(n):
            if i != j and rows[i][j] > 0:
                raise PositiveOffDiagonal(
                    f"c_{i + 1}{j + 1} = {rows[i][j]} > 0")
    for i in range(n):
        for j in range(n):
            if dd[i] * rows[i][j] != dd[j] * rows[j][i]:
                raise SymmetrizerMismatch(
                    f"c_{i + 1}*c_{i + 1}{j + 1} != c_{j + 1}*c_{j + 1}{i + 1}"
                    f" ({dd[i]}*{rows[i][j]} != {dd[j]}*{rows[j][i]})")
    return CartanDatum(n, tuple(rows), dd)


def validate_orientation(datum: CartanDatum, omega) -> CartanDatum:
    """Attach an orientation: one direction per negative pair, no cycles.
    Entries that are not integer pairs raise ValidationError."""
    pairs = frozenset(read_value(_pairs, omega, "bad orientation"))
    for i, j in pairs:
        if not (0 <= i < datum.n and 0 <= j < datum.n) or i == j:
            raise ValidationError(f"bad orientation pair ({i + 1},{j + 1})")
        if datum.c[i][j] >= 0:
            raise ValidationError(
                f"({i + 1},{j + 1}) oriented but c_{i + 1}{j + 1} >= 0")
        if (j, i) in pairs:
            raise BothDirections(
                f"both ({i + 1},{j + 1}) and ({j + 1},{i + 1}) present")
    for i, j in datum.edges:
        if (i, j) not in pairs and (j, i) not in pairs:
            raise MissingPair(
                f"edge {{{i + 1},{j + 1}}} has no direction")
    _check_acyclic(datum.n, pairs)
    return CartanDatum(datum.n, datum.c, datum.d, pairs)


def _pairs(omega) -> list[tuple[int, int]]:
    return [(i, j) for i, j in map(integers, omega)]


def _check_acyclic(n: int, pairs: frozenset[tuple[int, int]]):
    """Raise CycleInOrientation, naming a vertex of the cycle, when the
    oriented pairs have a directed cycle (`graphlib` finds it)."""
    preds = {v: set() for v in range(n)}
    for i, j in pairs:
        preds[j].add(i)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError as exc:
        raise CycleInOrientation(
            f"orientation contains a directed cycle through vertex "
            f"{exc.args[1][0] + 1}") from None


def suggest_orientation(datum: CartanDatum) -> frozenset[tuple[int, int]]:
    """An orientation that always validates: direct every edge upward."""
    return frozenset((i, j) for i, j in datum.edges)


@dataclass(frozen=True)
class Quiver:
    """The quiver with g_ij parallel arrows j -> i per oriented pair and one
    loop per vertex; loop at i has nilpotency order k*c_i."""

    n: int
    loop_orders: tuple[int, ...]
    arrows: tuple[tuple[int, int, int], ...]   # (target i, source j, copy g)


def build_quiver(datum: CartanDatum, k: int) -> Quiver:
    k = read_int(k, "k", 1, KTooSmall)
    arrows = []
    for i, j in datum.oriented_pairs():
        for g in range(datum.g(i, j)):
            arrows.append((i, j, g))
    orders = tuple(k * c for c in datum.d)
    return Quiver(datum.n, orders, tuple(arrows))


def euler_form(datum: CartanDatum, a, b, k: int = 1) -> int:
    """<a,b> = sum_i k*c_i*a_i*b_i + sum_{(i,j) in Omega} k*c_i*c_ij*a_j*b_i.

    On rank vectors of locally free modules this equals dim Hom - dim Ext^1
    for the algebra with symmetrizer k*D; k is read as in `symmetrizer_form`.
    """
    k = read_int(k, "k", 1, KTooSmall)
    a, b = _vec(datum, a), _vec(datum, b)
    total = sum(k * c * x * y for c, x, y in zip(datum.d, a, b))
    for i, j in datum.oriented_pairs():
        total += k * datum.d[i] * datum.c[i][j] * a[j] * b[i]
    return total


def symmetrizer_form(datum: CartanDatum, a, b, k: int = 1) -> int:
    """The symmetric form of diag(k*c_1, ..., k*c_n); no arrow terms.  k is
    read by `read_int` (a level below 1 raises KTooSmall)."""
    k = read_int(k, "k", 1, KTooSmall)
    a, b = _vec(datum, a), _vec(datum, b)
    return sum(k * c * x * y for c, x, y in zip(datum.d, a, b))


def flag_dimension(datum: CartanDatum, brseq: Sequence) -> int:
    """d(brseq) = sum_{a<b} <r_a, r_b> at k = 1.

    The flag variety with subquotient ranks brseq has dimension k*d(brseq)
    (when non-empty), and d(brseq) is the fiber dimension of the reduction
    map between levels k and k-1.  brseq is read by `rank_seq`.
    """
    seq = rank_seq(brseq, datum.n)
    total = 0
    for s in range(len(seq)):
        for t in range(s + 1, len(seq)):
            total += euler_form(datum, seq[s], seq[t], k=1)
    return total


def _vec(datum: CartanDatum, r) -> tuple[int, ...]:
    v = read_value(integers, r, "bad vector")
    if len(v) != datum.n:
        raise LengthMismatch(f"vector length {len(v)} != {datum.n}")
    return v


# --- configuration files ----------------------------------------------------

def datum_from_dict(cfg: dict) -> tuple[CartanDatum, int, int]:
    """Build (datum with orientation, k, p) from a config mapping.

    Keys: n, C (row major), D (list), omega (1-indexed pairs), optional k
    (default 1) and p (default 5).
    """
    if not isinstance(cfg, dict):
        raise ValidationError("config must hold a mapping")
    try:
        n = read_value(index, cfg["n"], "bad n")
        c = cfg["C"]
        d = cfg["D"]
        omega_raw = cfg["omega"]
    except KeyError as exc:
        raise ValidationError(f"config missing key {exc}") from exc
    datum = validate_cartan(c, d)
    if datum.n != n:
        raise ValidationError(f"n = {n} does not match C ({datum.n} rows)")
    omega = [(i - 1, j - 1)
             for i, j in read_value(_pairs, omega_raw, "bad omega")]
    datum = validate_orientation(datum, omega)
    k = read_int(cfg.get("k", 1), "k", 1, KTooSmall)
    p = read_value(index, cfg.get("p", 5), "bad p")
    return datum, k, p


def load_config(path: str) -> tuple[CartanDatum, int, int]:
    """Read a JSON or TOML config file (TOML needs Python >= 3.11); a file
    that cannot be read or parsed raises ValidationError."""
    load = json.load
    if path.endswith(".toml"):
        try:
            from tomllib import load
        except ImportError as exc:
            raise ValidationError(
                "TOML configs need Python >= 3.11; use JSON") from exc
    try:
        with open(path, "rb") as fh:
            cfg = load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}"
                              ) from exc
    return datum_from_dict(cfg)
