"""Invariant distances and metrics extracted from extremal discs.

The disc gives the upper bound: a two-point disc through (z, w) realizes
tanh(distance) = xi, a direction disc realizes kappa = 1/lambda.  The
matching lower bound comes from the left inverse F(x) = root of
G(x, .) = (x - f) . f_tilde, a holomorphic map D -> unit disc with
F o f = id; pulling the Poincare distance back through F certifies the
value.  certificate_gap is the difference between the two routes and is
an a posteriori error bound of the whole pipeline, not a convergence
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import disc as dc
from .domain import DomainSpec
from .errors import DomainViolation, NewtonFailure, WindingNotOne
from .continuation import solve_extremal
from .stationary import (
    Constraint, EReport, NewtonConfig, StationaryDisc, _G_winding, verify_E,
)


# Tolerance on |p(F(z),F(w)) - value| for a run to count as certified.
# The ellipsoid acceptance suite works to 1e-7; ball-like runs come out
# many orders tighter.
GAP_TOL = 1e-7


@dataclass
class MetricsResult:
    """One metric value with its certificates; ``report`` is the verify_E
    report of the disc at the base point and stays out of to_dict."""

    kind: str  # "lempert" or "kobayashi"
    value: float
    xi_or_lambda: float
    certificate_gap: float
    windings: dict = dc_field(default_factory=dict)
    residuals: dict = dc_field(default_factory=dict)
    report: EReport = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": float(self.value),
            "xi_or_lambda": float(self.xi_or_lambda),
            "certificate_gap": float(self.certificate_gap),
            "windings": {k: int(v) for k, v in self.windings.items()},
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }

    def violations(self) -> list:
        """One message per failed certificate: the report's, then the
        certificate gap against GAP_TOL.  Empty means certified."""
        out = self.report.violations()
        if not self.certificate_gap < GAP_TOL:
            out.append(f"certificate gap {self.certificate_gap:.3e} exceeds {GAP_TOL:.0e}")
        return out


def _derivative(G):
    """G' on the band of G = G(z, .)."""
    return dc.differentiate(G).band(0, max(G.k_max - 1, 0))


def left_inverse(disc: StationaryDisc, z) -> complex:
    """F(z): the unique root of G(z, .) in the unit disc.

    The argument principle on an 8N grid must count exactly one root
    (else WindingNotOne); the first moment of G'/G seeds a Newton polish
    down to |G| < 1e-12 (else NewtonFailure).
    """
    G, w = _G_winding(disc, z)
    if w != 1:
        raise WindingNotOne(f"G(z, .) winds {w} times around 0, expected 1")
    Gp = _derivative(G)
    M = max(8 * (G.k_max + 1), 512)
    Z = dc.unit_grid(M)
    est = np.sum(Z**2 * Gp.boundary_values(M) / G.boundary_values(M)) / M
    zeta = complex(est)
    if abs(zeta) > 1.0:
        zeta /= abs(zeta) * (1.0 + 1e-12)
    for _ in range(60):
        g = complex(G(zeta))
        if abs(g) < 1e-12:
            return zeta
        gp = complex(Gp(zeta))
        if gp == 0:
            break
        step = g / gp
        zeta_new = zeta - step
        if abs(zeta_new) > 1.0:
            zeta_new = zeta - 0.5 * step
            if abs(zeta_new) > 1.0:
                zeta_new /= abs(zeta_new) * (1.0 + 1e-12)
        zeta = zeta_new
    raise NewtonFailure(f"left inverse polish stalled at |G| = {abs(complex(G(zeta))):.3e}")


def poincare(a, b) -> float:
    """Poincare distance on the unit disc: atanh of the Mobius quotient.

    poincare(0, 0.5) = atanh(1/2) = 0.5493061443340548...
    """
    a, b = complex(a), complex(b)
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise DomainViolation("poincare distance needs points inside the unit disc")
    m = abs((a - b) / (1.0 - np.conj(b) * a))
    return float(np.arctanh(m))


def _result(kind, value, gap, disc: StationaryDisc, rep: EReport) -> MetricsResult:
    return MetricsResult(
        kind=kind,
        value=value,
        xi_or_lambda=float(disc.multiplier),
        certificate_gap=gap,
        windings={"phi": rep.wind_phi, "G": rep.wind_G},
        residuals={
            "blended": float(disc.residual_norm),
            "boundary_sup": rep.sup_boundary_defect,
            "dual_tail_sup": rep.dual_tail_sup,
        },
        report=rep,
    )


def lempert_distance(
    domain: DomainSpec, z, w,
    newton: NewtonConfig = None, disc: StationaryDisc = None,
) -> tuple:
    """Lempert function value atanh(xi) with a left-inverse certificate.

    Returns (MetricsResult, disc).  The certificate pulls both points back
    through F and compares p(F(z), F(w)) to p(0, xi); for a true extremal
    disc the two agree to solver accuracy.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if disc is None:
        disc = solve_extremal(domain, z, Constraint("two-point", w), newton)
    value = float(np.arctanh(disc.multiplier))
    # verify_E builds G(z, .) first, and F(z) reuses it
    rep = verify_E(domain, disc, z)
    gap = abs(poincare(left_inverse(disc, z), left_inverse(disc, w)) - value)
    return _result("lempert", value, gap, disc, rep), disc


def kobayashi_royden(
    domain: DomainSpec, z, v,
    newton: NewtonConfig = None, disc: StationaryDisc = None,
) -> tuple:
    """Infinitesimal metric kappa(z; v) = 1/lambda with certificate.

    kappa_ball(0; (1,0)) = 1 and kappa_ball(0; (2,0)) = 2.  The certificate
    compares against |dF(z) v| / (1 - |F(z)|^2), the Poincare length of the
    pushed-forward vector; dF(z) v = -(v . f_tilde(zeta0)) / G'(zeta0).
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if disc is None:
        disc = solve_extremal(domain, z, Constraint("direction", v), newton)
    value = 1.0 / float(disc.multiplier)
    # as in lempert_distance, F(z) and G' reuse verify_E's G(z, .)
    rep = verify_E(domain, disc, z)
    zeta0 = left_inverse(disc, z)
    Gp = _derivative(_G_winding(disc, z)[0])
    dFv = -complex(np.sum(v * disc.f_tilde(zeta0))) / complex(Gp(zeta0))
    gap = abs(value - abs(dFv) / (1.0 - abs(zeta0) ** 2))
    return _result("kobayashi", value, gap, disc, rep), disc


def geodesic_consistency(disc: StationaryDisc, pairs) -> float:
    """max |p(F(f(a)), F(f(b))) - p(a, b)| over interior parameter pairs.

    A complex geodesic is a Poincare isometry onto its image; the left
    inverse must recover the parameters exactly.
    """
    worst = 0.0
    for a, b in pairs:
        a, b = complex(a), complex(b)
        Fa = left_inverse(disc, disc.f(a))
        Fb = left_inverse(disc, disc.f(b))
        worst = max(worst, abs(poincare(Fa, Fb) - poincare(a, b)))
    return worst
