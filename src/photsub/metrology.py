"""Phase-estimation figures of merit for subtracted-squeezed-light interferometry.

Single Mach-Zehnder quantities (read-out difference uncertainty, quantum
Fisher information, Cramer-Rao bound) and correlated-interferometer
quantities (noise reduction factor, normalized covariance uncertainty),
all evaluated exactly from the read-out ports' normal-ordered moments,
plus the asymptotic closed forms used for cross-checks and regime analysis.

Mode bookkeeping
----------------
Single scheme: the coherent state |alpha>, alpha = sqrt(mu) e^{i psi}, and
the quantum (subtracted squeezed) state, with annihilator a, enter the
Mach-Zehnder with internal phase phi, which acts as the 2x2 map with entries
u = (e^{i phi} + 1)/2 and v = (e^{i phi} - 1)/2, chosen so that the
read-out photon-number difference has mean (mu - lam) cos(phi) for the
unsubtracted state.  The read-out ports are A = u alpha + v a and
B = v alpha + u a.

Correlated scheme: the two entangled quantum modes a0 and a1 are each mixed
in their own interferometer (phases phi1, phi2) with an identical coherent
state, so the ports are A = u(phi1) a0 + v(phi1) alpha and
B = u(phi2) a1 + v(phi2) alpha.

In both schemes the coherent inputs enter as displacements, which is exact
because every read-out observable is normally ordered.  One read-out
engine, :class:`_Scene`, holds the port moments
F(i, j) = <A^dag^i A^i B^dag^j B^j> of :func:`photsub.opalg.port_moments`,
and every figure of merit is algebra on them: ordinary moments by Stirling
numbers, the single slope from F(1, 0) - F(0, 1), the correlated mixed
derivative from F(1, 1).  Phase derivatives ride as jets on u and v, only in
the entries whose derivatives are read, and every variance is formed, and
guarded against cancellation, by :meth:`_Scene.variance`.

Detection loss eta is a beamsplitter to vacuum on each read-out port.  Every
term of F(i, j) has degree 2(i + j), so F(i, j) under loss is exactly
eta^(i+j) times its lossless value (the photodetection factorial-moment
law): the engine builds F from the lossless inputs and thins it once, with
:func:`photsub.moments.apply_loss`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from math import cos, isfinite, pi, sqrt, ulp

import mpmath as mp

from . import moments, opalg
from .errors import (
    NonPositiveQfi,
    Singular,
    UnsupportedOrder,
    ZeroMeanPhoton,
)
from .opalg import Jet
from .states import PassvSpec, SpatsvSpec

SQRT2 = sqrt(2.0)


def _check_scene(cfg) -> None:
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

    The central phases are equal, phi1 = phi2 = phi; ``tau`` = cos^2(phi/2)
    is the fraction of quantum light transmitted to each read-out port.
    """

    quantum: SpatsvSpec
    mu: float
    phi: float
    psi: float = pi / 2
    eta: float = 1.0

    def __post_init__(self):
        _check_scene(self)

    @property
    def tau(self) -> float:
        return cos(self.phi / 2.0) ** 2


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


def _mzi_entries(phi, slot: int = 0):
    """(u, v) Mach-Zehnder map entries at working precision; jets in slot 1 or 2."""
    e = mp.exp(mp.mpc(0, phi))
    if slot:
        de = mp.mpc(0, 1) * e
        e = Jet(e, d1=de) if slot == 1 else Jet(e, d2=de)
    half = mp.mpf("0.5")
    return (e + 1) * half, (e - 1) * half


def _amplitude(mu: float, psi: float):
    """Lossless coherent amplitude sqrt(mu) e^{i psi} at working precision."""
    return mp.sqrt(mp.mpf(mu)) * mp.exp(mp.mpc(0, psi))


#: entries of each memo below: a sweep runs every order (at most 5 in a
#: preset) at one axis value before the next, so this holds the orders of
#: the last few points and stays flat for a long-lived caller
_MEMO_SIZE = 16


@lru_cache(maxsize=_MEMO_SIZE)
def _input_table(single: bool, spec, dps: int) -> moments.MomentTable:
    """Lossless moment table of a quantum input, filled at ``dps`` digits."""
    with mp.workdps(dps):
        if single:
            table = moments.passv_moment_table(spec.lam, spec.m, chi=spec.chi)
        else:
            table = moments.spatsv_moment_table(spec.lam, spec.m, max_order=8, chi=spec.chi)
    table.dps = dps
    return table


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


class _Scene:
    """The lossy port-moment tables of one scene.

    ``tables[False]`` holds F(i, j) with plain entries and ``tables[True]``
    with the phase derivatives as jets (slot 1 for the single phase, slots 1
    and 2 for phi1 and phi2); both fill lazily, so the jets are computed only
    for the entries whose derivatives are read.  Every figure of merit reads
    its variance from :meth:`variance`.  Build it at working precision.
    """

    def __init__(self, tables: dict):
        self.tables = tables

    def expect(self, poly: dict, jet: bool = False) -> tuple:
        """(<poly(N_a, N_b)>, its scale); the value a :class:`Jet` with ``jet``."""
        value, scale = opalg.port_expectation(self.tables[jet], poly)
        return (Jet.lift(value) if jet else value), scale

    def variance(self, poly: dict, jet: bool = False) -> tuple:
        """(<o>, Var o) of a read-out observable o; <o> a Jet with ``jet``.

        Var o is <o^2> - <o>^2 at working precision, clipped at 0.  Fewer
        than 8 working digits surviving between the largest single product of
        <o^2> and the larger of |Var o| and the shot-noise scale
        <N_a> + <N_b> raise PrecisionInsufficient.  With ``jet``, so do fewer
        than 8 surviving between the largest product of <o> and its nonzero
        derivative in jet slot 1, the slope a single-phase read-out divides
        by.
        """
        mean, mean_scale = self.expect(poly, jet)
        second, scale = self.expect(_times(poly, poly))
        var = mp.re(second) - mp.re(mean.f if jet else mean) ** 2
        if jet and mp.re(mean.d1):
            moments.require_digits(mp.re(mean.d1), mean_scale, "slope")
        shot = mp.re(self.expect(_SUM)[0])
        moments.require_digits(max(abs(var), shot), scale, "variance")
        return mean, max(var, mp.mpf(0))


@lru_cache(maxsize=_MEMO_SIZE)
def _lossless_ports(single: bool, spec, mu: float, phi: float, psi: float, dps: int) -> dict:
    """Lossless F tables {jet: table} of a scene, filled at ``dps`` digits."""
    with mp.workdps(dps):
        alpha, quantum = _amplitude(mu, psi), _input_table(single, spec, dps)
        tables = {}
        for jet in (False, True):
            u1, v1 = _mzi_entries(phi, 1 if jet else 0)
            if single:
                ports = (({0: v1}, u1 * alpha), ({0: u1}, v1 * alpha))
            else:
                u2, v2 = _mzi_entries(phi, 2 if jet else 0)
                ports = (({0: u1}, v1 * alpha), ({1: u2}, v2 * alpha))
            tables[jet] = opalg.port_moments(ports, quantum, 2 if single else 4)
            tables[jet].dps = dps
    return tables


@contextmanager
def _scene(cfg, dps: int | None = None):
    """Yield the scene's port moments inside its working precision.

    That is ``dps`` digits, else 40 + 3 log10(mu) for either scheme.  F is
    built from the lossless inputs and thinned once: under efficiency eta
    each F(i, j) is exactly eta^(i+j) times its lossless value, so scenes
    that differ only in eta share their lossless F.
    """
    dps = dps or _working_digits(cfg.mu)
    with mp.workdps(dps):
        single = isinstance(cfg, SingleMziConfig)
        lossless = _lossless_ports(single, cfg.quantum, cfg.mu, cfg.phi, cfg.psi, dps)
        eta = mp.mpf(cfg.eta)
        yield _Scene({jet: moments.apply_loss(t, eta) for jet, t in lossless.items()})


def readout_moments(
    cfg: SingleMziConfig | CorrelatedConfig, dps: int | None = None
) -> dict:
    """Moments (p, q) -> <N_a^p N_b^q> of the two lossy read-out ports.

    p + q <= 2 for a :class:`SingleMziConfig`, p + q <= 4 for a
    :class:`CorrelatedConfig`: the orders its figures of merit use.  These
    are the quantities the oracle comparison checks.
    """
    order = 2 if isinstance(cfg, SingleMziConfig) else 4
    out = {}
    with _scene(cfg, dps=dps) as scene:
        for p in range(order + 1):
            for q in range(order + 1 - p):
                if p + q:
                    out[(p, q)] = float(mp.re(scene.expect({(p, q): 1})[0]))
    return out


# ---------------------------------------------------------------------------
# Single-interferometer figures of merit
# ---------------------------------------------------------------------------


def single_phase_uncertainty(cfg: SingleMziConfig, dps: int | None = None) -> float:
    """Uncertainty sqrt(Var o) / |d<o>/dphi| of the photon-number difference.

    The phase derivative eta (<n_q> - mu) sin(phi) is carried analytically
    through the beamsplitter map.  It cancels where <n_q> nears mu, so it is
    guarded against cancellation with Var o, by :meth:`_Scene.variance`.  A
    derivative that vanishes raises Singular.
    """
    with _scene(cfg, dps=dps) as scene:
        mean, var = scene.variance(_DIFFERENCE, jet=True)
        slope = mp.re(mean.d1)
        if abs(slope) < mp.mpf("1e-300"):
            raise Singular("read-out mean has zero phase derivative at this working point")
        return float(mp.sqrt(var) / abs(slope))


def qfi(cfg: SingleMziConfig, dps: int | None = None) -> float:
    """Quantum Fisher information 4 Var(n3) for the lossless pure inputs.

    The phase generator is the photon number n3 of the internal mode
    a3 = (a_coh + a_quantum)/sqrt(2); eta plays no role here.  The internal
    modes a3 and a4 = (a_coh - a_quantum)/sqrt(2) are read as the two ports,
    so the QFI is Var(2 N_a) = 4 (F(2, 0) + F(1, 0) - F(1, 0)^2).
    """
    with mp.workdps(dps or _working_digits(cfg.mu)):
        half = mp.sqrt(mp.mpf(2)) / 2
        alpha = _amplitude(cfg.mu, cfg.psi) * half
        ports = (({0: half}, alpha), ({0: -half}, alpha))
        quantum = _input_table(True, cfg.quantum, mp.mp.dps)
        scene = _Scene({False: opalg.port_moments(ports, quantum, 2)})
        return float(scene.variance({(1, 0): 2})[1])


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
    with _scene(cfg, dps=dps) as scene:
        mean_sum = mp.re(scene.expect(_SUM)[0])
        if mean_sum <= 0:
            raise ZeroMeanPhoton("no photons reach the read-out ports")
        return float(scene.variance(_DIFFERENCE)[1] / mean_sum)


def correlated_uncertainty(cfg: CorrelatedConfig, dps: int | None = None) -> float:
    """Normalized covariance-measurement uncertainty U_m.

    The joint observable is C = (N5 - N7)^2; the raw uncertainty is
    sqrt(2 Var C) / |d^2 <C> / dphi1 dphi2| with the mixed derivative carried
    analytically (phi1, phi2 as independent jet slots, evaluated at the
    common working point).  Only <N5 N7> = F(1, 1) depends on both phases, so
    the mixed derivative is -2 d^2 F(1, 1) / dphi1 dphi2.  The result is
    divided by the coherent-only bound sqrt(2) / (eta mu cos^2(phi/2)), so a
    working point where cos(phi/2) vanishes at float resolution (phi an odd
    multiple of pi) raises Singular.  A vanishing mixed derivative raises
    Singular before Var C is guarded.
    """
    if abs(cos(cfg.phi / 2.0)) <= ulp(cfg.phi):
        raise Singular("no coherent light reaches the read-out: cos(phi/2) = 0")
    with _scene(cfg, dps=dps) as scene:
        mixed = -2 * mp.re(scene.expect({(1, 1): 1}, jet=True)[0].d12)
        if abs(mixed) < mp.mpf("1e-300"):
            raise Singular("mixed phase derivative of <C> vanishes here")
        raw = mp.sqrt(2 * scene.variance(_COVARIANCE)[1]) / abs(mixed)
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
