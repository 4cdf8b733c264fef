"""Semantic exception hierarchy for extorus."""


class ExtorusError(Exception):
    """Base class for all extorus errors."""


class DeterminantNotOne(ExtorusError):
    """The integer matrix does not have determinant one."""


class NotHyperbolic(ExtorusError):
    """The integer matrix has an eigenvalue on the unit circle (|trace| <= 2)."""


class RadiusTooLarge(ExtorusError):
    """The threshold radius is >= 0.25, so the ball is not locally planar."""


class OutOfLocalRange(ExtorusError):
    """A nested-region index exceeds the range where preimages stay local.

    Beyond lam**((kappa+1)*q) * radius < 1/2 the relevant preimage wraps
    around the torus and the closed-form strip geometry no longer applies.
    """


class NoExceedances(ExtorusError):
    """An estimator was asked to run on data with no threshold exceedances."""


class TooFewGaps(ExtorusError):
    """Fewer than the minimum number of inter-cluster gaps for the KS test."""
