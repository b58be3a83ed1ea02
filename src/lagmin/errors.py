"""Exception types shared across the package."""


class LagminError(Exception):
    """Base class for all package-specific failures."""


class ZeroNormal(LagminError):
    """A plane normal with vanishing length cannot be normalized."""


class SingularPoint(LagminError):
    """Evaluation requested inside the guard band around a singular locus."""


class EmptyIntersection(LagminError):
    """Too few usable sample points survived the domain guards."""


class NonImmersed(LagminError):
    """The surface map is rank-deficient at the requested parameters."""


class IdealImage(LagminError):
    """The tangent plane maps to the ideal line, not to a finite point."""


class DomainMismatch(LagminError):
    """Operands were built over incompatible parameter domains."""


class UnknownName(LagminError):
    """No surface or field is registered under the requested name."""


class DegenerateCone(LagminError):
    """A sphere line whose cone degenerates has no Gauss circle."""


class TooFew(LagminError):
    """Not enough input items for the requested classification."""


class NotLinearOnCircle(LagminError):
    """A sampled restriction failed the linearity precondition."""


class DependentCircles(LagminError):
    """The input circles are linearly dependent as cycles."""


class BadFit(LagminError):
    """The model family cannot represent the sampled data."""


class ZeroGaussCurvature(LagminError):
    """The energy integrand is undefined where K vanishes."""


class ProvenanceMismatch(LagminError):
    """A check was paired with a surface it does not describe."""


class GrammarError(LagminError):
    """A field or surface specification string failed to parse."""
