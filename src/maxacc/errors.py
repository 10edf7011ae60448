"""Exception hierarchy for model validation, analysis, and simulation failures."""


class MaxaccError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MaxaccError):
    """The model or input is invalid: the command line exits 1 on every subclass."""


# ---------------------------------------------------------------------------
# finite-state model errors


class NotRateMatrix(InvalidInput):
    """Matrix is not a valid generator: negative off-diagonal entry or row sum != 0."""


class NotUniqueStationary(InvalidInput):
    """The chain has more than one stationary law (reducible with several closed classes)."""


class ZeroSupport(InvalidInput):
    """Operation requires a strictly positive stationary law; reduce support first."""


class DegenerateWeight(MaxaccError):
    """All filter likelihood weights underflowed; the step size is too large for this noise level."""


# ---------------------------------------------------------------------------
# linear-Gaussian model errors


class DimensionMismatch(InvalidInput):
    """Matrix shapes are inconsistent with a p-state, m-noise, n-observation model."""


class RankDeficientDorH(InvalidInput):
    """D must have independent columns and H independent rows."""


class NotStable(MaxaccError):
    """Matrix has an eigenvalue with nonnegative real part where stability is required."""


class NotDetectable(InvalidInput):
    """(A, H) is not detectable; no output injection can stabilize A - KH."""


class NotDetectableOrStabilizable(InvalidInput):
    """Model violates the standing assumptions: A unstable and not reducible to a stable model."""


class SingularShift(MaxaccError):
    """Transfer function evaluated at (or too near) an eigenvalue of the drift matrix."""


class IllConditionedPencil(MaxaccError):
    """Zero certification is ambiguous: singular values fall inside the tolerance band."""


class NoStabilizingSolution(MaxaccError):
    """The stationary Riccati equation has no stabilizing solution for this model."""


# ---------------------------------------------------------------------------
# model-file errors


class ParseError(InvalidInput):
    """Model file is not well-formed structured text."""


class SchemaError(InvalidInput):
    """Model file does not match the published schema."""


class ModelInvariantError(InvalidInput):
    """Model file parsed but the described model violates an invariant; names the field."""
