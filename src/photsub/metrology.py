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
in the expectations whose derivatives are read.

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
from math import cos, isfinite, pi, sin, sqrt, ulp

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
    """Decimal digits for the high-precision accumulation path."""
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
    """Lossy input tables behind the read-out port map of one scene.

    Read-out ports are modes 0 and 1.  The scene keeps the port map twice:
    with plain entries, and with entries that carry the phase derivatives as
    jets (slot 1 for the single phase, slots 1 and 2 for phi1 and phi2), for
    the expectations whose derivatives are read.  Build it through
    :func:`_scene`, at working precision.
    """

    def __init__(self, cfg):
        coherent, quantum = _input_tables(cfg, mp.mpf(cfg.eta))
        single = isinstance(cfg, SingleMziConfig)
        self.tables = [coherent, quantum] if single else [quantum]
        beta = 0 if single else coherent.entry((0, 1))
        self._images = {}
        for jet in (False, True):
            u1, v1 = _mzi_entries(cfg.phi, 1 if jet else 0)
            if single:
                images = {0: ({0: u1, 1: v1}, 0), 1: ({0: v1, 1: u1}, 0)}
            else:
                u2, v2 = _mzi_entries(cfg.phi, 2 if jet else 0)
                images = {0: ({0: u1}, v1 * beta), 1: ({1: u2}, v2 * beta)}
            self._images[jet] = images

    def expect(self, obs: OperatorPolynomial, jet: bool = False, min_digits: int | None = None):
        """Expectation of a read-out-level observable; a :class:`Jet` with ``jet``."""
        return opalg.contract(obs, self._images[jet], self.tables, min_digits)


@contextmanager
def _scene(cfg, dps: int | None = None):
    """Yield the scene's read-out engine inside its working precision.

    That is ``dps`` digits, else 40 + 3 log10(mu) for the correlated scheme
    and the ambient precision for the single one.
    """
    if dps is None and isinstance(cfg, SingleMziConfig):
        dps = mp.mp.dps
    with mp.workdps(dps or _working_digits(cfg.mu)):
        yield _Scene(cfg)


def _port_difference() -> OperatorPolynomial:
    return OperatorPolynomial.number(0) - OperatorPolynomial.number(1)


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


def single_phase_uncertainty(cfg: SingleMziConfig) -> float:
    """Uncertainty sqrt(Var o) / |d<o>/dphi| of the photon-number difference.

    The phase derivative eta (<n_q> - mu) sin(phi) is carried analytically
    through the beamsplitter map.  It cancels between the two inputs, so
    fewer than 8 working digits surviving against its scale
    eta (mu + <n_q>) |sin(phi)| raise PrecisionInsufficient.  A derivative
    that vanishes exactly, and still does with 20 more digits, raises
    Singular.
    """
    diff = _port_difference()
    with _scene(cfg) as scene:
        mean = Jet.lift(scene.expect(diff, jet=True))
        second = scene.expect(opalg.multiply(diff, diff))
        photons = sum(complex(t.entry((1, 1))).real for t in scene.tables)
        digits = mp.mp.dps
    mean_v = complex(mean.f).real
    var = complex(second).real - mean_v**2
    slope = complex(mean.d1).real
    if not isfinite(slope):
        raise Singular("read-out mean has no finite phase derivative here")
    if abs(slope) < 1e-300:
        with _scene(cfg, dps=digits + 20) as scene:
            finer = mp.re(Jet.lift(scene.expect(diff, jet=True)).d1)
        if finer == 0:
            raise Singular("read-out mean has zero phase derivative at this working point")
    if abs(slope) < 10.0 ** (8 - digits) * photons * abs(sin(cfg.phi)):
        raise PrecisionInsufficient(
            f"read-out slope {slope:.3g} cancels: fewer than 8 of {digits} digits survive"
        )
    var = max(var, 0.0)
    return sqrt(var) / abs(slope)


def qfi(cfg: SingleMziConfig) -> float:
    """Quantum Fisher information 4 Var(n3) for the lossless pure inputs.

    The phase generator is the photon number of the internal mode
    a3 = (a_coh + a_quantum)/sqrt(2); eta plays no role here.
    """
    half = 0.5
    n3 = OperatorPolynomial()
    for m1 in (0, 1):
        for m2 in (0, 1):
            n3 = n3 + opalg.multiply(
                OperatorPolynomial.ladder(m1, dagger=True),
                OperatorPolynomial.ladder(m2),
            ).scaled(half)
    tables = _input_tables(cfg, 1)
    inputs = {0: ({0: 1}, 0), 1: ({1: 1}, 0)}
    mean = complex(opalg.contract(n3, inputs, tables)).real
    second = complex(opalg.contract(opalg.multiply(n3, n3), inputs, tables)).real
    return 4.0 * max(second - mean**2, 0.0)


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
    diff = _port_difference()
    total = OperatorPolynomial.number(0) + OperatorPolynomial.number(1)
    with _scene(cfg, dps=dps) as scene:
        mean_sum = mp.re(scene.expect(total))
        if mean_sum <= 0:
            raise ZeroMeanPhoton("no photons reach the read-out ports")
        mean_diff = mp.re(scene.expect(diff))
        second = mp.re(scene.expect(opalg.multiply(diff, diff)))
        return float((second - mean_diff**2) / mean_sum)


def correlated_uncertainty(cfg: CorrelatedConfig, dps: int | None = None) -> float:
    """Normalized covariance-measurement uncertainty U_m.

    The joint observable is C = (N5 - N7)^2; the raw uncertainty is
    sqrt(2 Var C) / |d^2 <C> / dphi1 dphi2| with the mixed derivative carried
    analytically (phi1, phi2 as independent jet slots, evaluated at the
    common working point).  The result is divided by the coherent-only bound
    sqrt(2) / (eta mu cos^2(phi/2)), so a working point where cos(phi/2)
    vanishes at float resolution (phi an odd multiple of pi) raises Singular.
    """
    if abs(cos(cfg.phi / 2.0)) <= ulp(cfg.phi):
        raise Singular("no coherent light reaches the read-out: cos(phi/2) = 0")
    diff = _port_difference()
    c_op = opalg.multiply(diff, diff)
    with _scene(cfg, dps=dps) as scene:
        mean_c = scene.expect(c_op, jet=True)
        mixed = mp.re(mean_c.d12)
        if abs(mixed) < mp.mpf("1e-300"):
            raise Singular("mixed phase derivative of <C> vanishes here")
        # Var C = <(C - <C>)^2>: centring before squaring keeps the
        # bright-beam cancellation inside the exactly contracted polynomial.
        centered = c_op - mean_c.f
        var_c = mp.re(scene.expect(opalg.multiply(centered, centered), min_digits=8))
        var_c = var_c if var_c > 0 else mp.mpf(0)
        raw = mp.sqrt(2 * var_c) / abs(mixed)
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
