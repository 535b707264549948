"""Phase-estimation figures of merit for subtracted-squeezed-light interferometry.

Single Mach-Zehnder quantities (read-out difference uncertainty, quantum
Fisher information, Cramer-Rao bound) and correlated-interferometer
quantities (noise reduction factor, normalized covariance uncertainty, the
Mandel Q of one mode of the pair), all evaluated exactly from the read-out
ports' normal-ordered moments.  Each config names its spec, whose mode count
the engine reads.  Each figure of merit takes only its own scheme's config
and raises ValueError for the other's; :func:`readout_moments` serves both.

Single scheme: the coherent state |alpha>, alpha = sqrt(mu) e^{i psi}, and
the quantum (subtracted squeezed) state enter one Mach-Zehnder with internal
phase phi.  Correlated scheme: the two entangled quantum modes are each
mixed with an identical coherent state in their own interferometer, at
phases phi1 = phi2 = phi.  The read-out ports and their moments
F(i, j) = <A^dag^i A^i B^dag^j B^j> are those of :mod:`photsub.opalg`, and
every figure of merit is algebra on them: each observable it reads has its
weights formed once, at import, is folded once per scene family and is
summed once per family and point, one point per (phi, eta) shared by every
order, and so is each phase derivative it reads, the single slope or the
correlated mixed derivative, an integer map of the observable's rows.
Inputs obey the one input contract, :data:`photsub.errors.PARAMETERS`.
Each figure takes its config alone and is a certified ball, every variance
but Mandel Q's by :func:`_variance`, correctly rounded or else
PrecisionInsufficient (:func:`moments.rounded`): the engine picks its
working digits, doubling them from ``moments.START_DIGITS`` until the figure
rounds (:func:`moments.retried`).  Detection loss eta, a beamsplitter to vacuum on
each read-out port, scales F(i, j) by eta^(i+j), carried by each point's
port entries alone (:func:`moments.thin`, the package's one loss law).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import acos, cos, isfinite, isqrt, nextafter, pi, sqrt, ulp

from . import moments, opalg
from .errors import (
    NonPositiveQfi, OutOfRange, Singular, ZeroMeanPhoton, check, check_type)
from .states import PassvSpec, SpatsvSpec


@dataclass(frozen=True)
class _Config:
    """Interferometer scene: quantum input (a ``spec``), coherent input, phase, loss."""

    quantum: PassvSpec | SpatsvSpec
    mu: float  # coherent mean photon number |alpha|^2
    phi: float  # interferometer working phase
    psi: float = 0.0  # coherent phase
    eta: float = 1.0  # detection efficiency on both read-out ports

    def __post_init__(self):
        check_type("quantum", self.quantum, self.spec)
        check(mu=self.mu, phi=self.phi, psi=self.psi, eta=self.eta)


@dataclass(frozen=True)
class SingleMziConfig(_Config):
    """Single Mach-Zehnder scene: a PASSV beside the coherent state."""

    spec = PassvSpec


@dataclass(frozen=True)
class CorrelatedConfig(_Config):
    """Twin-interferometer scene: entangled pair, two identical coherent states.

    The central phases are equal, phi1 = phi2 = phi, and cos^2(phi/2) is
    the fraction of quantum light transmitted to each read-out port.
    """

    spec = SpatsvSpec
    psi: float = pi / 2


def phi_for_tau(tau: float) -> float:
    """Working phase whose quantum-light transmission cos^2(phi/2) equals tau:
    2 acos(sqrt tau), the root and its acos each correctly rounded.  x steps
    from ``math.acos``, which may miss by an ulp, until the cosines of the
    midpoints either side bracket the root, each sign decided in integers
    (:func:`moments.cos_sin`, at 64 bits, doubled while within an ulp), as a
    nonzero dyadic's cosine is never the root."""
    check(tau=tau)
    root = sqrt(tau)
    (man, exp), x = moments.man_exp(root), acos(root)

    def above(y: float) -> bool:  # cos((x + y)/2) > root
        (nx, dx), (ny, dy), bits = x.as_integer_ratio(), y.as_integer_ratio(), 64
        den = max(dx, dy)  # (x + y)/2 = n/(2 den)
        n = nx * (den // dx) + ny * (den // dy)
        while True:
            (c, e), _ = moments.cos_sin(n, den.bit_length(), bits)
            unit = c.bit_length() + e - bits  # c is within 2^unit, 2^-bits of its size
            low = min(e, exp, unit)
            gap = (c << (e - low)) - (man << (exp - low))
            if abs(gap) > 1 << (unit - low):
                return gap > 0
            bits *= 2

    while root < 1.0:  # acos(1) = 0 exactly
        lower, upper = above(nextafter(x, 0.0)), above(nextafter(x, 4.0))
        if lower and not upper:
            return 2.0 * x
        x = nextafter(x, 4.0 if upper else 0.0)
    return 0.0


# ---------------------------------------------------------------------------
# The read-out engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=moments.MEMO_SIZE)
def _mzi_entries(phi: float, bits: int) -> tuple:
    """x = c^2, y = s^2 and z/i = cs at ``bits`` bits, real fixed numbers, c and s
    the cosine and sine of phi/2 (:func:`moments.cos_sin`), each within 2^-bits of
    its own size, so a radius of (|c| >> bits) + 2 units, or exact at phi = 0: the
    Mach-Zehnder entries u = c^2 + i cs, v = -s^2 + i cs, whose z = conj(u) v is
    i cs (the turn i), keep their relative accuracy at any phase, where
    (e^{i phi} -+ 1)/2 would cancel."""
    num, den = phi.as_integer_ratio()
    c, s = (moments.fixed_from(man, (abs(man) >> bits) + 2 if num else 0, exp, bits + 4)
            for man, exp in moments.cos_sin(num, den.bit_length(), bits))  # phi/2
    return tuple(moments.fixed_mul(a, b, bits) for a, b in ((c, c), (s, s), (c, s)))


@lru_cache(maxsize=moments.MEMO_SIZE)
def _point(phi: float, eta: float, bits: int) -> opalg.PortPoint:
    """The port entries at phi under loss eta, read by every order and figure there."""
    return opalg.PortPoint(*_mzi_entries(phi, bits), bits, eta)


@lru_cache(maxsize=moments.MEMO_SIZE)
def _port_coefficients(spec, mu: float, psi: float, digits: int):
    """The port moments of a scene family at ``digits`` working digits,
    compiled for their bits.

    Everything but the phase and the loss, so one compilation serves every
    point of a phi or eta sweep.  The spec gives its input table, whose
    arity sets the port layout.
    """
    bits = moments.digits_to_bits(digits)
    return opalg.PortCoefficients(spec.table(), mu, psi, bits)


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


#: the F weights (:func:`opalg.normal_ordered`) of o and o^2 for each o
#: whose variance a figure reads (the QFI's is 2 N_a), of the nrf's mean
#: N_a + N_b and of each read-out moment N_a^p N_b^q, formed once
_DIFFERENCE_WEIGHTS, _COVARIANCE_WEIGHTS, _QFI_WEIGHTS = (
    (opalg.normal_ordered(o), opalg.normal_ordered(_times(o, o)))
    for o in (_DIFFERENCE, _COVARIANCE, {(1, 0): 2}))
_SUM_WEIGHTS = opalg.normal_ordered(_SUM)
_READOUT_WEIGHTS = {(p, q): opalg.normal_ordered({(p, q): 1})
                    for p in range(5) for q in range(5 - p) if p + q}


def _variance(ports: opalg.PortMoments, observable: tuple) -> moments.Bounded:
    """Var o = <o^2> - <o>^2 of a read-out observable o, from the weights of
    o and o^2 in ``observable``: a ball that may reach below 0, where no
    figure rounds to a negative float."""
    mean, square = observable
    return ports.expect(square) - ports.expect(mean).squared()


def _nonzero(x: moments.Bounded, what: str) -> moments.Bounded:
    """A derivative to divide by: Singular where it sums to exactly zero."""
    if not x.man:
        raise Singular(f"{what} vanishes at this working point")
    return x


def _root_over(var: moments.Bounded, den: moments.Bounded, *scale: moments.Bounded) -> float:
    """sqrt(var) scale / |den|, correctly rounded (:func:`moments.rounded`): the
    root's ball ends at isqrts, 70 bits or more, of var's ends clipped at 0,
    the lower floored and the upper raised, so it holds every root."""
    low, high, e = var.man - var.err, var.man + var.err, var.exp
    if e % 2:
        low, high, e = low << 1, high << 1, e - 1
    t = max(0, 71 - high.bit_length() // 2)
    a, b = isqrt(max(low, 0) << 2 * t), isqrt(max(high, 0) << 2 * t)
    b += b * b < high << 2 * t  # the roots times 2^t, rounded outward
    return moments.rounded(moments.Bounded(a + b, b - a, e // 2 - t - 1), *scale, over=den)


def _scene(cfg, digits: int) -> opalg.PortMoments:
    """The scene's port moments at ``digits`` working digits (see
    :func:`_port_coefficients`); the config's spec carries the scheme."""
    coefficients = _port_coefficients(cfg.quantum, cfg.mu, cfg.psi, digits)
    return opalg.PortMoments(coefficients, _point(cfg.phi, cfg.eta, coefficients.bits))


@moments.retried
def readout_moments(cfg: SingleMziConfig | CorrelatedConfig, digits: int) -> dict:
    """Moments (p, q) -> <N_a^p N_b^q> of the two lossy read-out ports.

    p + q <= 2 per mode of the quantum input, 2 for a :class:`SingleMziConfig`
    and 4 for a :class:`CorrelatedConfig`: the orders its figures of merit
    use.  These are the quantities the oracle comparison checks.
    """
    out, ports = {}, _scene(cfg, digits)
    for key, weights in _READOUT_WEIGHTS.items():
        if sum(key) <= 2 * cfg.quantum.modes:
            # combined from F(i, j), which every moment shares, not folded each
            out[key] = sum(w * ports.entry(*ij) for ij, w in weights).value
    return out


# ---------------------------------------------------------------------------
# Single-interferometer figures of merit
# ---------------------------------------------------------------------------


@moments.retried
def single_phase_uncertainty(cfg: SingleMziConfig, digits: int) -> float:
    """Uncertainty sqrt(Var o) / |d<o>/dphi| of the photon-number difference.

    The phase derivative, eta (<n_q> - mu) sin(phi), is read from o's folded
    rows.  It cancels where <n_q> nears mu: one that sums to zero raises
    Singular, and one whose ball reaches 0 rounds to no one float.
    """
    check_type("cfg", cfg, SingleMziConfig)
    ports = _scene(cfg, digits)
    var = _variance(ports, _DIFFERENCE_WEIGHTS)
    slope = ports.expect(_DIFFERENCE_WEIGHTS[0], "slope")
    return _root_over(var, _nonzero(slope, "read-out slope"))


@moments.retried
def qfi(cfg: SingleMziConfig, digits: int) -> float:
    """Quantum Fisher information 4 Var(n3) for the lossless pure inputs.

    The phase generator is the photon number n3 of the internal mode
    a3 = (a_coh + a_quantum)/sqrt(2); eta plays no role here.  The internal
    modes a3 and a4 = (a_coh - a_quantum)/sqrt(2) are read as the two ports,
    so the QFI is Var(2 N_a) = 4 (F(2, 0) + F(1, 0) - F(1, 0)^2).
    """
    check_type("cfg", cfg, SingleMziConfig)
    coefficients = _port_coefficients(cfg.quantum, cfg.mu, cfg.psi, digits)
    half = moments.fixed_times(moments.ONE, 1, 1)  # x = y = z = 1/2, exactly
    point = opalg.PortPoint(half, half, half, coefficients.bits, turn=1)
    return _variance(opalg.PortMoments(coefficients, point), _QFI_WEIGHTS).value


def cramer_rao_bound(fq: float) -> float:
    """Lower uncertainty bound 1/sqrt(F_Q); an F_Q that overflowed to inf is OutOfRange."""
    check(fq=fq)
    if fq <= 0:
        raise NonPositiveQfi(f"Fisher information must be positive, got {fq}")
    if not isfinite(fq):
        raise OutOfRange(f"Fisher information {fq} overflows a float")
    return 1.0 / sqrt(fq)


# ---------------------------------------------------------------------------
# Correlated-interferometer figures of merit
# ---------------------------------------------------------------------------


@moments.retried
def nrf(cfg: CorrelatedConfig, digits: int) -> float:
    """Noise reduction factor Var(N5 - N7) / (<N5> + <N7>).

    Values below 1 flag non-classical photon-number correlation between the
    two read-out ports; a dark read-out (zero mean) raises ZeroMeanPhoton.
    """
    check_type("cfg", cfg, CorrelatedConfig)
    ports = _scene(cfg, digits)
    mean_sum = ports.expect(_SUM_WEIGHTS)
    if mean_sum.man <= 0:
        raise ZeroMeanPhoton("no photons reach the read-out ports")
    return moments.rounded(_variance(ports, _DIFFERENCE_WEIGHTS), over=mean_sum)


@moments.retried
def mandel_q(cfg: CorrelatedConfig, digits: int) -> float:
    """Mandel Q = (Var N - <N>)/<N> of one mode of the pair, detected with
    efficiency eta; negative is sub-Poissonian.

    Port A reads that mode alone: the scene at mu = psi = phi = 0, where the
    MZI gives u = 1 and v = 0, has <N> = F(1, 0) and
    Var N - <N> = F(2, 0) - F(1, 0)^2, so Q thins to eta Q.  A dark mode
    raises ZeroMeanPhoton.
    """
    check_type("cfg", cfg, CorrelatedConfig)
    ports = _scene(replace(cfg, mu=0.0, psi=0.0, phi=0.0), digits)
    mean = ports.entry(1, 0)
    if mean.man <= 0:
        raise ZeroMeanPhoton("Mandel Q undefined for zero mean photon number")
    return moments.rounded(ports.entry(2, 0) - mean.squared(), over=mean)


@moments.retried
def correlated_uncertainty(cfg: CorrelatedConfig, digits: int) -> float:
    """Normalized covariance-measurement uncertainty U_m.

    The joint observable is C = (N5 - N7)^2; the raw uncertainty is
    sqrt(2 Var C) / |d^2 <C> / dphi1 dphi2|, the mixed derivative at the
    common working point read from <C>'s mixed rows.  The result is
    divided by the coherent-only bound sqrt(2) / (eta mu cos^2(phi/2)), with
    eta cos^2(phi/2) the point's lossy port entry X, so U = sqrt(Var C) mu X
    / |mixed|, X with its radius; a working point without coherent light at the
    read-out (mu = 0, or cos(phi/2) zero at float resolution: phi an odd multiple
    of pi) raises Singular, as does a mixed derivative that sums to exactly 0.
    """
    check_type("cfg", cfg, CorrelatedConfig)
    if not cfg.mu or abs(cos(cfg.phi / 2.0)) <= ulp(cfg.phi):
        raise Singular("no coherent light reaches the read-out: mu = 0 or cos(phi/2) = 0")
    ports = _scene(cfg, digits)
    mixed = _nonzero(ports.expect(_COVARIANCE_WEIGHTS[0], "mixed"), "mixed phase derivative of <C>")
    var = _variance(ports, _COVARIANCE_WEIGHTS)
    return _root_over(var, mixed, cfg.mu * moments.Bounded(*ports.point.lossy[0]))
