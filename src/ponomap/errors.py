"""Exception taxonomy shared across the package."""


class PonomapError(Exception):
    """Base class for all package errors."""


class GaugeRangeError(PonomapError):
    """Gauge evaluation overflowed or left the representable range."""


class NoRootError(PonomapError):
    """The root equation has no sign change on the probe interval."""


class HypothesisViolatedError(PonomapError):
    """tau grows too fast near zero: t^n * tau(p*t) never drops below 1."""


class ToleranceError(PonomapError):
    """An iterative solver or quadrature failed to reach its tolerance."""


class ConstructionError(PonomapError):
    """A sequence pack or map violates a structural invariant."""


class DepthError(PonomapError):
    """Requested depth exceeds the pack's truncation depth."""


class DomainError(PonomapError):
    """Point lies outside the closed cube [-1, 1]^n."""


class PrecisionError(PonomapError):
    """Input is not exactly representable at the required dyadic level."""


class RidgeSetError(PonomapError):
    """Point lies on the sup-norm ridge set where the map is not differentiable."""


class CoverageError(PonomapError):
    """A candidate cover fails to cover all cubes at the reference depth."""
