"""Exception taxonomy shared by every module.

The command-line driver maps exceptions to exit codes through the
``exit_code`` attribute: 2 for input/usage problems, 3 for numerical
failures (a missed compare threshold exits 4 without an exception).
Library code raises these directly;
nothing in the package raises bare ValueError/RuntimeError for conditions a
caller might want to distinguish.
"""


class HoibcError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 3


class RangeError(HoibcError, ValueError):
    """Argument outside the documented working range (orders, |z|, rule sizes)."""

    exit_code = 2


class DomainError(HoibcError, ValueError):
    """Argument outside the mathematical domain (branch cut, r <= 0)."""

    exit_code = 2


class UsageError(HoibcError, ValueError):
    """API misuse: wrong order tag, zero a0, mismatched shapes or grids."""

    exit_code = 2


class ValidationError(HoibcError, ValueError):
    """Run-configuration validation failure; lists the offending fields."""

    exit_code = 2

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)


class ResonanceError(HoibcError, ArithmeticError):
    """Coating sits on a tan() pole; ``n`` is the index of the offending pole."""

    def __init__(self, message, n=None):
        super().__init__(message)
        self.n = n


class DegenerateFitError(HoibcError, ArithmeticError):
    """Coefficient fit is degenerate (c1 = 0, collinear or ill-conditioned nodes)."""


class PoleError(HoibcError, ArithmeticError):
    """Rational impedance evaluated at a zero of its denominator."""


class MeshError(HoibcError, ValueError):
    """Contour is too coarse, or an element is unresolved at the wavenumber."""

    exit_code = 2


class SingularMatrixError(HoibcError, ArithmeticError):
    """Exact zero pivot during LU; ``column`` is the offending column index."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class TruncationError(HoibcError, ArithmeticError):
    """A series tail failed to reach the requested tolerance, or the
    series' Bessel values overflow double precision.

    ``diagnostics`` carries whatever the caller finds useful to report
    (last term magnitude, number of terms, target tolerance).
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)

