"""Lame constants and the derived single-layer kernel constants.

Every downstream formula is written in terms of (alpha, beta, kappa) for the
exterior material and their tilde counterparts for the inclusion:

    alpha = (1/mu + 1/(2*mu + lam)) / 2
    beta  = (1/mu - 1/(2*mu + lam)) / 2
    kappa = (lam + 3*mu) / (lam + mu)

with kappa * beta == alpha as an exact algebraic identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class MaterialError(ValueError):
    """Raised for non-elliptic or otherwise inadmissible material data."""


def derive_constants(lam: float, mu: float) -> tuple[float, float, float]:
    """Return (alpha, beta, kappa) for one isotropic material.

    Parameters
    ----------
    lam, mu : float
        Lame constants. Ellipticity requires mu > 0 and lam + mu > 0, and
        both must be finite.

    Raises
    ------
    MaterialError
        If the constants are not finite or the ellipticity conditions fail.
    """
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise MaterialError(f"Lame constants must be finite, got lam={lam}, mu={mu}")
    if not (mu > 0.0 and lam + mu > 0.0):
        raise MaterialError(
            f"non-elliptic material: need mu > 0 and lam + mu > 0, got lam={lam}, mu={mu}"
        )
    alpha = 0.5 * (1.0 / mu + 1.0 / (2.0 * mu + lam))
    beta = 0.5 * (1.0 / mu - 1.0 / (2.0 * mu + lam))
    kappa = (lam + 3.0 * mu) / (lam + mu)
    return alpha, beta, kappa


@dataclass(frozen=True)
class MaterialPair:
    """Exterior/interior material data with derived kernel constants.

    The interior may be a cavity (``cavity=True``), in which case the interior
    Lame constants are zero and interior_constants() raises (the constants
    are singular at mu_int = 0). System assembly branches on the flag.
    """

    lam_ext: float
    mu_ext: float
    lam_int: float = 0.0
    mu_int: float = 0.0
    cavity: bool = False

    alpha: float = field(init=False, repr=False)
    beta: float = field(init=False, repr=False)
    kappa: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        alpha, beta, kappa = derive_constants(self.lam_ext, self.mu_ext)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "kappa", kappa)
        if self.cavity:
            if self.lam_int != 0.0 or self.mu_int != 0.0:
                raise MaterialError("cavity mode requires zero interior constants")
            return
        derive_constants(self.lam_int, self.mu_int)  # validates the interior constants
        d_lam = self.lam_ext - self.lam_int
        d_mu = self.mu_ext - self.mu_int
        if d_lam * d_lam + d_mu * d_mu == 0.0:
            raise MaterialError(
                "transmission mode requires material contrast; "
                "interior and exterior constants are identical"
            )

    @property
    def has_interior(self) -> bool:
        return not self.cavity

    def interior_constants(self) -> tuple[float, float, float]:
        """Return (alpha_t, beta_t, kappa_t) of the inclusion; error in cavity mode."""
        if self.cavity:
            raise MaterialError("interior kernel constants are undefined for a cavity")
        return derive_constants(self.lam_int, self.mu_int)
