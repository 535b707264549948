"""Phase-estimation figures of merit for subtracted-squeezed-light interferometry.

Single Mach-Zehnder quantities (read-out difference uncertainty, quantum
Fisher information, Cramer-Rao bound) and correlated-interferometer
quantities (noise reduction factor, normalized covariance uncertainty),
all evaluated exactly through the symbolic operator engine, plus the
asymptotic closed forms used for cross-checks and regime analysis.

Mode bookkeeping
----------------
Single scheme: mode 0 carries the coherent state |sqrt(mu) e^{i psi}>,
mode 1 the quantum (subtracted squeezed) state.  The beamsplitter pair of
the Mach-Zehnder with internal phase phi acts as the 2x2 map with entries
u = (e^{i phi} + 1)/2 and v = (e^{i phi} - 1)/2, chosen so that the
read-out photon-number difference has mean (mu - lam) cos(phi) for the
unsubtracted state.

Correlated scheme: modes 0 and 1 carry the two entangled quantum modes,
each mixed in its own interferometer (phases phi1, phi2) with an identical
coherent state.  The coherent inputs are handled displacement-first: the
read-out operator images are u(phi_k) a_k + v(phi_k) beta with beta the
coherent amplitude, which is exact because the observables are
normal-ordered (no vacuum contractions survive the expectation).

Every figure of merit is an expectation taken by one read-out engine,
:class:`_Scene`: :func:`photsub.opalg.contract` expands the port images of
each monomial of a normally-ordered read-out observable straight into
moment keys of the input tables.  Phase derivatives ride along as jets only
in the expectations whose derivatives are read, and every variance is
formed, and guarded against cancellation, by :meth:`_Scene.variance`.

Detection loss eta is a beamsplitter to vacuum on each read-out port.  The
loss is the same on every port, so it commutes with the passive
interferometer map and is applied once, to the inputs, by
:func:`photsub.moments.apply_loss` (each normally-ordered moment scaled by
eta^(degree/2)).  The coherent drive is thinned by the same function: the
single scheme uses the thinned coherent table as mode 0, and the
correlated scheme takes beta = sqrt(eta mu) e^{i psi} from its first
moment.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from math import cos, isfinite, pi, sqrt, ulp

import mpmath as mp

from . import moments, opalg
from .errors import (
    NonPositiveQfi,
    PrecisionInsufficient,
    Singular,
    UnsupportedOrder,
    ZeroMeanPhoton,
)
from .opalg import Jet, OperatorPolynomial
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


def _input_tables(cfg, eta) -> tuple:
    """(coherent, quantum) input moment tables, both thinned by ``eta``.

    The coherent table is mode 0; the quantum table covers mode 1 (single
    scheme) or the mode pair (0, 1) (correlated scheme).
    """
    alpha = mp.sqrt(mp.mpf(cfg.mu)) * mp.exp(mp.mpc(0, cfg.psi))
    spec = cfg.quantum
    if isinstance(cfg, SingleMziConfig):
        quantum = moments.passv_moment_table(spec.lam, spec.m, chi=spec.chi, mode=1)
    else:
        quantum = moments.spatsv_moment_table(
            spec.lam, spec.m, max_order=8, chi=spec.chi, modes=(0, 1)
        )
    coherent = moments.coherent_table(alpha, mode=0)
    return moments.apply_loss(coherent, eta), moments.apply_loss(quantum, eta)


class _Scene:
    """Input moment tables behind the read-out port images of one scene.

    Read-out ports are modes 0 and 1.  ``images`` maps ``False`` to the port
    images with plain entries and, where phase derivatives are read, ``True``
    to the images whose entries carry them as jets (slot 1 for the single
    phase, slots 1 and 2 for phi1 and phi2).  Every figure of merit reads its
    variance from :meth:`variance`.  Build it at working precision.
    """

    def __init__(self, tables, images: dict):
        self.tables = tables
        self._images = images

    def expect(self, obs: OperatorPolynomial, jet: bool = False):
        """Expectation of a read-out-level observable; a :class:`Jet` with ``jet``."""
        value = opalg.contract(obs, self._images[jet], self.tables)[0]
        return Jet.lift(value) if jet else value

    def variance(self, obs: OperatorPolynomial, jet: bool = False) -> tuple:
        """(<o>, Var o) of a Hermitian read-out observable; <o> a Jet with ``jet``.

        Var o is <o^2> - <o>^2 at working precision, clipped at 0.  Fewer
        than 8 working digits surviving between the largest single product of
        <o^2> and the larger of |Var o| and the shot-noise scale
        <N_a> + <N_b> raise PrecisionInsufficient.  With ``jet``, so do fewer
        than 8 surviving between the largest product of <o> and its nonzero
        derivative in jet slot 1, the slope a single-phase read-out divides
        by.
        """
        mean, mean_scale = opalg.contract(obs, self._images[jet], self.tables)
        second, scale = opalg.contract(
            opalg.multiply(obs, obs), self._images[False], self.tables
        )
        lifted = Jet.lift(mean)
        var = mp.re(second) - mp.re(lifted.f) ** 2
        kept = mp.mpf(10) ** (8 - mp.mp.dps)
        slope = mp.re(lifted.d1)
        if slope and abs(slope) < kept * mean_scale:
            raise PrecisionInsufficient(
                f"slope cancels from {mean_scale:.3g} to {float(slope):.3g}: "
                f"fewer than 8 of {mp.mp.dps} digits survive"
            )
        if abs(var) < kept * scale and mp.re(self.expect(_port_sum())) < kept * scale:
            raise PrecisionInsufficient(
                f"variance cancels from {scale:.3g} to {float(var):.3g}: "
                f"fewer than 8 of {mp.mp.dps} digits survive"
            )
        return (lifted if jet else mean), max(var, mp.mpf(0))


@contextmanager
def _scene(cfg, dps: int | None = None):
    """Yield the scene's read-out engine inside its working precision.

    That is ``dps`` digits, else 40 + 3 log10(mu) for either scheme.
    """
    with mp.workdps(dps or _working_digits(cfg.mu)):
        coherent, quantum = _input_tables(cfg, mp.mpf(cfg.eta))
        single = isinstance(cfg, SingleMziConfig)
        beta = 0 if single else coherent.entry((0, 1))
        images = {}
        for jet in (False, True):
            u1, v1 = _mzi_entries(cfg.phi, 1 if jet else 0)
            if single:
                images[jet] = {0: ({0: u1, 1: v1}, 0), 1: ({0: v1, 1: u1}, 0)}
            else:
                u2, v2 = _mzi_entries(cfg.phi, 2 if jet else 0)
                images[jet] = {0: ({0: u1}, v1 * beta), 1: ({1: u2}, v2 * beta)}
        yield _Scene([coherent, quantum] if single else [quantum], images)


def _port_difference() -> OperatorPolynomial:
    return OperatorPolynomial.number(0) - OperatorPolynomial.number(1)


def _port_sum() -> OperatorPolynomial:
    return OperatorPolynomial.number(0) + OperatorPolynomial.number(1)


def readout_moments(
    cfg: SingleMziConfig | CorrelatedConfig, dps: int | None = None
) -> dict:
    """Moments (p, q) -> <N_a^p N_b^q> of the two lossy read-out ports.

    p + q <= 2 for a :class:`SingleMziConfig`, p + q <= 4 for a
    :class:`CorrelatedConfig`: the orders its figures of merit use.  These
    are the quantities the oracle comparison checks.
    """
    order = 2 if isinstance(cfg, SingleMziConfig) else 4
    n_a, n_b = OperatorPolynomial.number(0), OperatorPolynomial.number(1)
    out = {}
    with _scene(cfg, dps=dps) as scene:
        for p in range(order + 1):
            for q in range(order + 1 - p):
                if p + q:
                    obs = opalg.multiply(opalg.power(n_a, p), opalg.power(n_b, q))
                    out[(p, q)] = float(mp.re(scene.expect(obs)))
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
        mean, var = scene.variance(_port_difference(), jet=True)
        slope = mp.re(mean.d1)
        if abs(slope) < mp.mpf("1e-300"):
            raise Singular("read-out mean has zero phase derivative at this working point")
        return float(mp.sqrt(var) / abs(slope))


def qfi(cfg: SingleMziConfig, dps: int | None = None) -> float:
    """Quantum Fisher information 4 Var(n3) for the lossless pure inputs.

    The phase generator is the photon number of the internal mode
    a3 = (a_coh + a_quantum)/sqrt(2); eta plays no role here.  It is read as
    Var(2 n3), whose operator coefficients are integers.
    """
    ladder = OperatorPolynomial.ladder
    up = ladder(0, dagger=True) + ladder(1, dagger=True)
    two_n3 = opalg.multiply(up, ladder(0) + ladder(1))
    with mp.workdps(dps or _working_digits(cfg.mu)):
        identity = {0: ({0: 1}, 0), 1: ({1: 1}, 0)}
        inputs = _Scene(_input_tables(cfg, 1), {False: identity})
        return float(inputs.variance(two_n3)[1])


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
        mean_sum = mp.re(scene.expect(_port_sum()))
        if mean_sum <= 0:
            raise ZeroMeanPhoton("no photons reach the read-out ports")
        return float(scene.variance(_port_difference())[1] / mean_sum)


def correlated_uncertainty(cfg: CorrelatedConfig, dps: int | None = None) -> float:
    """Normalized covariance-measurement uncertainty U_m.

    The joint observable is C = (N5 - N7)^2; the raw uncertainty is
    sqrt(2 Var C) / |d^2 <C> / dphi1 dphi2| with the mixed derivative carried
    analytically (phi1, phi2 as independent jet slots, evaluated at the
    common working point).  The result is divided by the coherent-only bound
    sqrt(2) / (eta mu cos^2(phi/2)), so a working point where cos(phi/2)
    vanishes at float resolution (phi an odd multiple of pi) raises Singular.
    A vanishing mixed derivative raises Singular before Var C is guarded.
    """
    if abs(cos(cfg.phi / 2.0)) <= ulp(cfg.phi):
        raise Singular("no coherent light reaches the read-out: cos(phi/2) = 0")
    diff = _port_difference()
    c_op = opalg.multiply(diff, diff)
    with _scene(cfg, dps=dps) as scene:
        mixed = mp.re(scene.expect(c_op, jet=True).d12)
        if abs(mixed) < mp.mpf("1e-300"):
            raise Singular("mixed phase derivative of <C> vanishes here")
        raw = mp.sqrt(2 * scene.variance(c_op)[1]) / abs(mixed)
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
