"""Exception types shared across the toolkit."""


class CVCodeError(Exception):
    """Base class for every toolkit-specific error."""


class InvalidDimension(CVCodeError):
    """A dimension, order, or shift is outside its legal range."""


class ZeroProjection(CVCodeError):
    """A projector annihilated the state it was applied to."""


class UnitMismatch(CVCodeError):
    """A comb operation was asked to act outside its unit regime."""


class NonRationalPhase(CVCodeError):
    """An operation would produce a phase that is not a rational multiple of pi."""


class DegenerateSpectrum(CVCodeError):
    """Eigenvalues are too close to assign canonical eigenvectors."""


class NotSemiUnitary(CVCodeError):
    """A claimed semi-unitary fails S^dag S = 1 or has non-orthogonal images."""


class NonOrthonormalCodewords(CVCodeError):
    """Codewords handed to a checker are not orthonormal."""
