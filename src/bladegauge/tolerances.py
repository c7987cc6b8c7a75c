"""Centralized numerical tolerance budget.

Every module draws its thresholds from a single `Tolerances` record so the
error budget can be tightened or relaxed in one place (and overridden from
scenario configs).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # exact matrix identities, no differentiation involved
    algebraic: float = 1e-10
    # first-derivative identities evaluated with analytic derivatives
    analytic: float = 1e-9
    # default central-difference step
    fd_step: float = 1e-3
    # max anti-hermitian part tolerated before an input is rejected
    hermitian_input: float = 1e-10
    # anti-hermitian correction size that triggers a warning on hermitization
    hermitian_warn: float = 1e-8
    # hermiticity violation in -i V^dag dV that signals a broken frame
    frame_consistency: float = 1e-6
    # pivot threshold for the deterministic orthogonal-complement completion
    gram_schmidt_pivot: float = 1e-8
    # smallest admissible overlap singular value in the canonical-frame chart
    chart_min_overlap: float = 1e-8
    # angular guard around excluded coordinate poles
    pole_guard: float = 1e-6
    # relative tolerance for sphere-flux quadrature checks
    flux_rel: float = 5e-3
    # blade patch gluing / single-valuedness comparisons
    gluing: float = 1e-10

    def fd(self, h: float | None = None) -> float:
        """Budget for identities involving one finite-difference level."""
        h = self.fd_step if h is None else h
        return 10.0 * h * h

    def fd_nested(self) -> float:
        """Budget for residuals built from nested stencils (2nd/3rd derivatives)."""
        return 100.0 * self.fd_step * self.fd_step


DEFAULT = Tolerances()
