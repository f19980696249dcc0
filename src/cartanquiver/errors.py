"""Exception hierarchy shared by all cartanquiver modules.

Errors are grouped by how the command line maps them to exit codes:
validation problems (bad input data) exit with 2, budget refusals with 3,
and failed internal consistency checks with 4.
"""


class CartanQuiverError(Exception):
    """Base class for all library errors."""


class ValidationError(CartanQuiverError):
    """Invalid input data (Cartan data, orientations, modules, files)."""


class BudgetExceeded(CartanQuiverError):
    """A computation was refused because it exceeds the configured budget."""


class InternalCheckError(CartanQuiverError):
    """An internal substitution or cross check failed; indicates a bug."""


# --- Cartan data -----------------------------------------------------------

class DiagonalNotTwo(ValidationError):
    pass


class PositiveOffDiagonal(ValidationError):
    pass


class SymmetrizerMismatch(ValidationError):
    pass


class NonPositiveSymmetrizer(ValidationError):
    pass


class MissingPair(ValidationError):
    pass


class BothDirections(ValidationError):
    pass


class CycleInOrientation(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


# --- Linear algebra --------------------------------------------------------

class DimensionMismatch(ValidationError):
    pass


class NotPrime(ValidationError):
    pass


class ModulusTooLarge(ValidationError):
    """The prime exceeds the bound up to which int64 arithmetic is exact."""


class NonIntegerCoefficient(CartanQuiverError):
    """Interpolation produced non-integer coefficients at the degree bound."""


class OverdeterminedMismatch(CartanQuiverError):
    """Extra interpolation points are inconsistent with the fitted polynomial."""


class NotEnoughPrimes(ValidationError):
    pass


# --- Modules ---------------------------------------------------------------

class ShapeMismatch(ValidationError):
    pass


class RelationH1Violated(ValidationError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"nilpotency relation fails at vertex {vertex + 1}")


class RelationH2Violated(ValidationError):
    def __init__(self, i, j, g):
        self.i, self.j, self.g = i, j, g
        super().__init__(
            f"commutation relation fails for arrow {g + 1} of pair "
            f"({i + 1},{j + 1})"
        )


class NotLocallyFree(ValidationError):
    pass


class EntryDegreeOverflow(ValidationError):
    pass


class NotInvariant(ValidationError):
    pass


class RelationBrokenAtPrime(ValidationError):
    pass


class DatumMismatch(ValidationError):
    pass


# --- Reduction and flags ---------------------------------------------------

class KTooSmall(ValidationError):
    pass


class NotAHomomorphism(ValidationError):
    pass


class FlagNotInReduction(ValidationError):
    pass


class RankTooLarge(ValidationError):
    pass
