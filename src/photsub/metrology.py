"""Phase-estimation figures of merit for subtracted-squeezed-light interferometry.

Single Mach-Zehnder quantities (read-out difference uncertainty, quantum
Fisher information, Cramer-Rao bound) and correlated-interferometer
quantities (noise reduction factor, normalized covariance uncertainty),
all evaluated exactly from the read-out ports' normal-ordered moments,
plus the asymptotic closed forms used for cross-checks and regime analysis.

Single scheme: the coherent state |alpha>, alpha = sqrt(mu) e^{i psi}, and
the quantum (subtracted squeezed) state enter one Mach-Zehnder with internal
phase phi.  Correlated scheme: the two entangled quantum modes are each
mixed with an identical coherent state in their own interferometer, at
phases phi1 = phi2 = phi.  The read-out ports and their moments
F(i, j) = <A^dag^i A^i B^dag^j B^j> are those of :mod:`photsub.opalg`, and
every figure of merit is algebra on them: ordinary moments by Stirling
numbers, the single slope from F(1, 0) - F(0, 1), the correlated mixed
derivative from F(1, 1).  Each comes with a certified error, and every
variance is formed, and its surviving digits checked, by :func:`_variance`.
Detection loss eta, a beamsplitter to vacuum on each read-out port, scales
F(i, j) by eta^(i+j) (:func:`moments.thin`, the package's one loss law).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from math import cos, isfinite, pi, sqrt, ulp

import mpmath as mp

from . import moments, opalg
from .errors import NonPositiveQfi, Singular, UnsupportedOrder, ZeroMeanPhoton
from .states import PassvSpec, SpatsvSpec

SQRT2 = sqrt(2.0)


def _check_scene(cfg) -> None:
    spec = PassvSpec if isinstance(cfg, SingleMziConfig) else SpatsvSpec
    if not isinstance(cfg.quantum, spec):
        raise ValueError(f"quantum must be a {spec.__name__}, got {type(cfg.quantum).__name__}")
    for name in ("mu", "phi", "psi", "eta"):
        if not isfinite(getattr(cfg, name)):
            raise ValueError(f"{name} must be finite")
    if cfg.mu < 0:
        raise ValueError("mu must be >= 0")
    if not 0.0 <= cfg.eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")


@dataclass(frozen=True)
class SingleMziConfig:
    """Single Mach-Zehnder scene: quantum input, coherent input, phase, loss."""

    quantum: PassvSpec
    mu: float  # coherent mean photon number |alpha|^2
    phi: float  # interferometer working phase
    psi: float = 0.0  # coherent phase
    eta: float = 1.0  # detection efficiency on both read-out ports

    def __post_init__(self):
        _check_scene(self)


@dataclass(frozen=True)
class CorrelatedConfig:
    """Twin-interferometer scene: entangled pair, two identical coherent states.

    The central phases are equal, phi1 = phi2 = phi, and cos^2(phi/2) is
    the fraction of quantum light transmitted to each read-out port.
    """

    quantum: SpatsvSpec
    mu: float
    phi: float
    psi: float = pi / 2
    eta: float = 1.0

    def __post_init__(self):
        _check_scene(self)


def phi_for_tau(tau: float) -> float:
    """Working phase whose quantum-light transmission cos^2(phi/2) equals tau."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    return 2.0 * float(mp.acos(mp.sqrt(tau)))


# ---------------------------------------------------------------------------
# The read-out engine
# ---------------------------------------------------------------------------


def _working_digits(mu: float) -> int:
    """Default working decimal digits of a scene with coherent power mu."""
    return 40 + 3 * int(mp.log10(mu + 10))


def _mzi_entries(phi):
    """(u, v, du/dphi) of the Mach-Zehnder map, at guard digits.

    u = e^{i phi/2} cos(phi/2) and v = i e^{i phi/2} sin(phi/2) keep their
    relative accuracy at any phase, where (e^{i phi} -+ 1)/2 would cancel.
    """
    with mp.workdps(mp.mp.dps + moments.GUARD_DIGITS):
        half = mp.mpf(phi) / 2
        h = mp.expj(half)
        return h * mp.cos(half), mp.mpc(0, 1) * h * mp.sin(half), mp.mpc(0, 1) * h**2 / 2


def _amplitude(mu: float, psi: float):
    """Lossless coherent amplitude sqrt(mu) e^{i psi} at the ambient precision."""
    return mp.sqrt(mp.mpf(mu)) * mp.exp(mp.mpc(0, psi))


#: entries of the memo below: a sweep runs every order (at most 5 in a
#: preset) at one axis value before the next, so this holds the orders of
#: the last few points and stays flat for a long-lived caller
_MEMO_SIZE = 16


@lru_cache(maxsize=_MEMO_SIZE)
def _port_coefficients(single: bool, spec, mu: float, psi: float, dps: int):
    """The port moments of a scene family compiled for ``dps`` working digits.

    Everything but the phase and the loss, so one compilation serves every
    point of a phi or eta sweep; the inputs are filled at guard digits.
    """
    with mp.workdps(dps + moments.GUARD_DIGITS):
        if single:
            table = moments.passv_moment_table(spec.lam, spec.m, chi=spec.chi)
        else:
            table = moments.spatsv_moment_table(spec.lam, spec.m, max_order=8, chi=spec.chi)
        return opalg.PortCoefficients(single, table, _amplitude(mu, psi), mp.libmp.dps_to_prec(dps))


#: read-out observables as {(p, q): weight of N_a^p N_b^q}
_DIFFERENCE = {(1, 0): 1, (0, 1): -1}
_SUM = {(1, 0): 1, (0, 1): 1}


def _times(x: dict, y: dict) -> dict:
    """Product of two polynomials in the commuting port counts N_a, N_b."""
    out = {}
    for (p1, q1), c1 in x.items():
        for (p2, q2), c2 in y.items():
            key = (p1 + p2, q1 + q2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


_COVARIANCE = _times(_DIFFERENCE, _DIFFERENCE)  # C = (N_a - N_b)^2


def _variance(ports: opalg.PortMoments, poly: dict):
    """Var o = <o^2> - <o>^2 of a read-out observable o, clipped at 0.

    Unless its certified error keeps 8 digits of the larger of |Var o| and
    the shot-noise scale <N_a> + <N_b>, PrecisionInsufficient is raised.
    """
    var = opalg.port_expectation(ports, _times(poly, poly))
    var = var - opalg.port_expectation(ports, poly).squared()
    shot = opalg.port_expectation(ports, _SUM).value
    moments.require_digits(var, "variance", size=max(abs(var.value), shot))
    return max(var.value, mp.mpf(0))


def _nonzero(x: moments.Bounded, what: str):
    """The value of a derivative to divide by: Singular where it sums to
    exactly zero, PrecisionInsufficient unless 8 digits are certified."""
    if not x.man:
        raise Singular(f"{what} vanishes at this working point")
    moments.require_digits(x, what)
    return x.value


@contextmanager
def _scene(cfg, dps: int | None = None):
    """Yield the scene's port moments inside its working precision.

    That is ``dps`` digits, else 40 + 3 log10(mu) for either scheme.  Scenes
    that differ only in phi and eta share one compilation.
    """
    dps = dps or _working_digits(cfg.mu)
    with mp.workdps(dps):
        single = isinstance(cfg, SingleMziConfig)
        coefficients = _port_coefficients(single, cfg.quantum, cfg.mu, cfg.psi, dps)
        yield opalg.port_moments(coefficients, *_mzi_entries(cfg.phi), cfg.eta)


def readout_moments(cfg: SingleMziConfig | CorrelatedConfig, dps: int | None = None) -> dict:
    """Moments (p, q) -> <N_a^p N_b^q> of the two lossy read-out ports.

    p + q <= 2 for a :class:`SingleMziConfig`, p + q <= 4 for a
    :class:`CorrelatedConfig`: the orders its figures of merit use.  These
    are the quantities the oracle comparison checks; a moment not certified
    to 8 digits raises PrecisionInsufficient.
    """
    order = 2 if isinstance(cfg, SingleMziConfig) else 4
    out = {}
    with _scene(cfg, dps=dps) as ports:
        for key in [(p, q) for p in range(order + 1) for q in range(order + 1 - p) if p + q]:
            out[key] = opalg.port_expectation(ports, {key: 1})
            moments.require_digits(out[key], "read-out moment")
            out[key] = float(out[key].value)
    return out


# ---------------------------------------------------------------------------
# Single-interferometer figures of merit
# ---------------------------------------------------------------------------


def single_phase_uncertainty(cfg: SingleMziConfig, dps: int | None = None) -> float:
    """Uncertainty sqrt(Var o) / |d<o>/dphi| of the photon-number difference.

    The phase derivative eta (<n_q> - mu) sin(phi) is analytic.  It cancels
    where <n_q> nears mu: one that sums to zero raises Singular, and one not
    certified to 8 digits PrecisionInsufficient.
    """
    with _scene(cfg, dps=dps) as ports:
        var = _variance(ports, _DIFFERENCE)
        slope = _nonzero(opalg.port_expectation(ports, _DIFFERENCE, slope=True), "read-out slope")
        return float(mp.sqrt(var) / abs(slope))


def qfi(cfg: SingleMziConfig, dps: int | None = None) -> float:
    """Quantum Fisher information 4 Var(n3) for the lossless pure inputs.

    The phase generator is the photon number n3 of the internal mode
    a3 = (a_coh + a_quantum)/sqrt(2); eta plays no role here.  The internal
    modes a3 and a4 = (a_coh - a_quantum)/sqrt(2) are read as the two ports,
    so the QFI is Var(2 N_a) = 4 (F(2, 0) + F(1, 0) - F(1, 0)^2).
    """
    dps = dps or _working_digits(cfg.mu)
    with mp.workdps(dps):
        coefficients = _port_coefficients(True, cfg.quantum, cfg.mu, cfg.psi, dps)
        with mp.workdps(dps + moments.GUARD_DIGITS):
            half = mp.sqrt(mp.mpf(2)) / 2
        return float(_variance(opalg.port_moments(coefficients, half, half, None), {(1, 0): 2}))


def cramer_rao_bound(fq: float) -> float:
    """Lower uncertainty bound 1/sqrt(F_Q)."""
    if fq <= 0:
        raise NonPositiveQfi(f"Fisher information must be positive, got {fq}")
    return 1.0 / sqrt(fq)


# ---------------------------------------------------------------------------
# Correlated-interferometer figures of merit
# ---------------------------------------------------------------------------


def nrf(cfg: CorrelatedConfig, dps: int | None = None) -> float:
    """Noise reduction factor Var(N5 - N7) / (<N5> + <N7>).

    Values below 1 flag non-classical photon-number correlation between the
    two read-out ports; a dark read-out (zero mean) raises ZeroMeanPhoton.
    """
    with _scene(cfg, dps=dps) as ports:
        mean_sum = opalg.port_expectation(ports, _SUM).value
        if mean_sum <= 0:
            raise ZeroMeanPhoton("no photons reach the read-out ports")
        return float(_variance(ports, _DIFFERENCE) / mean_sum)


def correlated_uncertainty(cfg: CorrelatedConfig, dps: int | None = None) -> float:
    """Normalized covariance-measurement uncertainty U_m.

    The joint observable is C = (N5 - N7)^2; the raw uncertainty is
    sqrt(2 Var C) / |d^2 <C> / dphi1 dphi2| with the analytic mixed
    derivative at the common working point.  Only <N5 N7> = F(1, 1) depends on both phases, so
    the mixed derivative is -2 d^2 F(1, 1) / dphi1 dphi2.  The result is
    divided by the coherent-only bound sqrt(2) / (eta mu cos^2(phi/2)), so a
    working point where cos(phi/2) vanishes at float resolution (phi an odd
    multiple of pi) raises Singular.  The mixed derivative is checked as the
    single slope is, before Var C.
    """
    if abs(cos(cfg.phi / 2.0)) <= ulp(cfg.phi):
        raise Singular("no coherent light reaches the read-out: cos(phi/2) = 0")
    with _scene(cfg, dps=dps) as ports:
        mixed = _nonzero(-2 * ports.mixed(), "mixed phase derivative of <C>")
        raw = mp.sqrt(2 * _variance(ports, _COVARIANCE)) / abs(mixed)
        eta = mp.mpf(cfg.eta)
        classical = mp.sqrt(2) / (eta * mp.mpf(cfg.mu) * mp.cos(cfg.phi / 2) ** 2)
        return float(raw / classical)


# ---------------------------------------------------------------------------
# Asymptotic closed forms
# ---------------------------------------------------------------------------


def nrf_asymptotic(m: int, tau: float, lam: float) -> float:
    """Small-energy noise-reduction-factor expansions, orders m = 0, 1, 2."""
    s = sqrt(lam)
    if m == 0:
        return 1.0 - 2.0 * tau * (s - lam)
    if m == 1:
        return 1.0 - 4.0 * tau * (s - 2.0 * lam)
    if m == 2:
        return 1.0 - 6.0 * tau * (s - 3.0 * lam)
    raise UnsupportedOrder(f"no closed small-energy form for m={m}")


CORRELATED_REGIMES = (
    "low_lambda_bright",
    "high_lambda_bright",
    "dark_fringe_low_lambda",
    "dark_fringe_high_lambda",
)


def correlated_uncertainty_asymptotic(
    regime: str, m: int, *, lam: float = 0.0, tau: float = 1.0, eta: float = 1.0
) -> float:
    """Closed-form normalized uncertainty in the four asymptotic regimes.

    ``low_lambda_bright``: bright coherent beam, weak squeezing (per-order
    expansions in sqrt(lam)).  ``high_lambda_bright``: bright beam, strong
    squeezing (order-independent).  ``dark_fringe_low_lambda`` /
    ``dark_fringe_high_lambda``: quantum-light-dominated read-out near
    phi = 0, limited by detection efficiency only.
    """
    if m < 0 or m > 3:
        raise UnsupportedOrder(f"closed forms cover m = 0..3, got m={m}")
    if regime == "low_lambda_bright":
        s = sqrt(lam)
        te = tau * eta
        if m == 0:
            inner = 2.0 * s - 2.0 * lam
        elif m == 1:
            inner = 4.0 * s + 0.5 * lam * (3.0 * eta * tau - 16.0)
        elif m == 2:
            inner = 6.0 * s + 4.5 * lam * (eta * tau - 4.0)
        else:
            inner = 8.0 * s + lam * (9.0 * eta * tau - 32.0)
        return SQRT2 * (1.0 - te * inner)
    if regime == "high_lambda_bright":
        if lam <= 0:
            raise ValueError("high_lambda_bright requires lam > 0")
        return SQRT2 * (1.0 - tau * eta - tau * eta / (4.0 * lam))
    if regime == "dark_fringe_low_lambda":
        if eta <= 0:
            raise ValueError("dark_fringe_low_lambda requires eta > 0")
        return SQRT2 * sqrt((1.0 - eta) / eta)
    if regime == "dark_fringe_high_lambda":
        factors = {0: sqrt(5.0), 1: sqrt(3.0), 2: sqrt(13.0 / 5.0), 3: sqrt(17.0 / 7.0)}
        return 2.0 * factors[m] * (1.0 - eta)
    raise ValueError(f"unknown regime {regime!r}; expected one of {CORRELATED_REGIMES}")
