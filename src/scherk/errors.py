"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class DegreeError(ValueError):
    """Requested Bernstein bidegree is below the polynomial's degree."""


class NotAdmissible(Exception):
    """The parameter pair has an empty admissible interval."""


class NoSignChange(Exception):
    """The monotone function has no sign change over the admissible interval."""


class NonConvergence(Exception):
    """A solve found no answer within tolerance (for the zero point: r not
    below 1, alpha rounded to pi, or measures that miss their targets)."""


class CertificateMismatch(Exception):
    """A computed certificate entry differs from the expected exact value."""
