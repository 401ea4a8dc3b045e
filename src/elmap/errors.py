"""Exception types shared across the package.

Every error raised on a contract violation derives from ElmapError, so
callers can catch the package's failures with a single except clause.
Names mirror the conditions they signal rather than carrying an Error
suffix; they read as predicates ("InfeasibleMoment was raised").
"""


class ElmapError(Exception):
    """Base class for all package-specific errors."""


# -- probability objects ---------------------------------------------------

class LengthMismatch(ElmapError):
    """Support and weight sequences differ in length."""


class NegativeWeight(ElmapError):
    """A weight is negative beyond the clamping tolerance."""


class NotNormalized(ElmapError):
    """Weights do not sum to 1 within the acceptance tolerance."""


class EmptySample(ElmapError):
    """An estimation operation received a sample with no observations."""


class ThetaOutOfDomain(ElmapError):
    """A parameter value lies outside the model's parameter domain."""


class SupportMismatch(ElmapError):
    """Two distributions were expected to share a common support."""


# -- divergences ------------------------------------------------------------

class GammaSingular(ElmapError):
    """Cressie-Read index hit one of the singular values {0, -1}."""


class DomainViolation(ElmapError):
    """An input left the domain on which a formula is defined."""


# -- projections and estimators ---------------------------------------------

class NotConverged(ElmapError):
    """An iterative solver did not meet its tolerance within the cap."""


class InfeasibleMoment(ElmapError):
    """The moment constraints admit no distribution on the given atoms."""


class SupportCondition(InfeasibleMoment):
    """The moment constraints admit a distribution on the given atoms only
    if some atom gets weight zero: the linear family's support is strictly
    smaller than the base's (the zero moment is on the hull's boundary)."""


class AllThetaInfeasible(ElmapError):
    """A profile search found no grid value of theta with a finite profile."""


class SingularConstraints(ElmapError):
    """The constraint Gram matrix of a least-squares fit is singular."""


# -- Bayesian experiments ---------------------------------------------------

class AllZeroLikelihood(ElmapError):
    """Every candidate assigns probability zero to the observed data, in a
    posterior or in a likelihood ranking (``mnpl_exact``, ``mnpl_grid``)."""


class InfiniteRate(ElmapError):
    """A divergence that sets a decay rate or a ranking is infinite for every
    candidate or for the target set Q (support deficiency): in a decay
    target, grid L-projections or ``mnpl_asymptotic`` (at c = 0)."""


class AsymmetricConfig(ElmapError):
    """The two-sided experiment configuration is not symmetric."""


# -- Polya urns and censoring -----------------------------------------------

class UrnExhausted(ElmapError):
    """A draw from an urn with negative reinforcement is impossible."""


class NoEvents(ElmapError):
    """A censored dataset contains no uncensored observation."""


# -- CLI ---------------------------------------------------------------------

class ConfigInvalid(ElmapError):
    """An experiment configuration failed schema or cross-field checks."""
