"""Exception types shared across the package."""


class RwpError(Exception):
    """Base class for all domain errors raised by this package."""


class SupercriticalCharge(RwpError):
    """(j+1/2)^2 <= (Z*alpha)^2: the Coulomb-Dirac square root turns imaginary."""


class InvalidQuantumNumbers(RwpError):
    """Quantum numbers outside the bound-state domain (n < l+1, l < 1, ...)."""


class InvalidGridSpec(RwpError):
    """Radial grid request incompatible with composite Simpson quadrature."""


class NonNormalizedSpinor(RwpError):
    """|a|^2 + |b|^2 deviates from 1 beyond tolerance."""


class InvalidRange(RwpError):
    """n breaks l+1 <= n_min <= n_av <= n_max <= N_LIMIT; times not ascending."""


class RangeMismatch(RwpError):
    """Energy or radial table does not span exactly the packet's n range, or
    has another l or Z."""
