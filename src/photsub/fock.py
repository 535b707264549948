"""Truncated Fock-space numerics: the oracle that checks the exact engine.

Exact small-scale states (squeezed, two-mode squeezed: each class declares its
mode count), photon subtraction, and a brute-force interferometer oracle used
to validate the symbolic moment engine on its own scene, a config of
:mod:`photsub.metrology` whose spec picks one MZI or twin MZIs.  Each state is
one amplitude function n -> <n|state>; one filler turns it into an array, by
default up to the least level whose tail mass is below TAIL_TOL, and for a
subtracted state whose n^4-weighted tail is below TAIL_TOL E[n^4], plus
CUTOFF_MARGIN levels, and checks a given cutoff, and before any fill a
squeezed state's floor, against the mass tail.  Every level is real: the one
relative phase is the coherent port's.  Photon subtraction is one map of
amplitude functions, a^m on each mode (:func:`_lowered`), filled once per
:mod:`photsub.states` spec by :func:`subtracted`.  The MZI turns the
coherent port's displacement into one displacement of each output port around
the closed-form image of |0> (x) |quantum>: a real plane of normalised
Laguerre functions, filled by a recurrence over the nq quantum levels, between
phases that drop out of the read-out or ride on that image.  The single
scheme's output is one D x D plane: O(D nq^2) work.  The twin MZIs' discarded
ports drop out by the unitarity of their displacements, which leaves one real
nq x nq Gram matrix per count.

Conventions
-----------
S(r) squeezes the Y = (a - a^dag)/(i sqrt 2)
quadrature: Var(Y) = exp(-2r)/2.  Mean photon number of S(r)|0> is sinh^2(r).
The 50:50 interferometer map is

    a_out1 = u a_in1 + v a_in2,   a_out2 = v a_in1 + u a_in2,

with u = (e^{i phi} + 1)/2 and v = (e^{i phi} - 1)/2, which yields
<N_out1 - N_out2> = (mu - lambda) cos(phi) for a coherent state in port 1 and
a zero-mean-quadrature state in port 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, cosh, exp, factorial, ldexp, lgamma, log, prod, sinh, sqrt, tanh

import numpy as np

from . import states
from .errors import (  # MAX_AMPLITUDES bounds the oracle's largest array, read at each call
    MAX_AMPLITUDES, CutoffTooSmall, MemoryBoundExceeded, NullState, OutOfRange, check, check_type)
from .moments import ratio

TAIL_TOL = 1e-12
NULL_THRESHOLD = 1e-300
#: adaptive constructors keep this many slots of headroom above the tail
CUTOFF_MARGIN = 5


@dataclass(frozen=True)
class _FockState:
    """Pure state as amplitudes over levels 0..cutoff, |n> or |n, n> as ``modes`` is 1 or 2."""

    amplitudes: np.ndarray

    @property
    def cutoff(self) -> int:
        return len(self.amplitudes) - 1

    def normalized(self) -> "_FockState":
        norm = np.linalg.norm(self.amplitudes)
        if norm < NULL_THRESHOLD:
            raise NullState("cannot normalize a null state")
        return type(self)(self.amplitudes / norm)


@dataclass(frozen=True)
class FockState1(_FockState):
    """Single-mode pure state as a complex amplitude vector over |0..cutoff>."""

    modes = 1


@dataclass(frozen=True)
class TwoModeDiagonalState(_FockState):
    """Two-mode pure state supported on {|n,n>}; entry n multiplies |n,n>."""

    modes = 2


def _filled(amplitude, cutoff: int | None = None, mean: float = 0.0,
            floor=lambda n: 0.0, fourth: float = 0.0) -> np.ndarray:
    """The amplitudes ``amplitude(n)`` of a unit-norm state for n = 0 .. cutoff.

    By default the cutoff is the least level whose tail mass is below
    TAIL_TOL, and whose n^4-weighted tail, ``fourth`` = E[n^4] less the
    filled levels' n^4 |amplitude|^2, is below TAIL_TOL ``fourth`` (none
    where it is 0), plus CUTOFF_MARGIN, at most 10^6.  CutoffTooSmall is raised for
    a given ``cutoff`` that leaves a larger tail and, before any fill, for a
    ``mean`` photon number past the cutoff or that limit, or where
    ``floor(n)``, a lower bound on the mass from level n on, passes 1000
    TAIL_TOL past it: the fill, its float tail within 1e-12, refuses it too.
    """
    amps = []
    tail, tail4 = 1.0, fourth  # the tails as they shrink round far finer than the sums
    limit = 1_000_000 if cutoff is None else cutoff
    if mean > limit or floor(limit + 1) > 1000 * TAIL_TOL:
        raise CutoffTooSmall(f"a state of {mean:.3g} mean photons needs more than {limit} levels")
    while tail > TAIL_TOL or tail4 > TAIL_TOL * fourth:
        n = len(amps)
        if n > limit:
            raise CutoffTooSmall(f"{n} levels leave tail mass {tail:.3e} > {TAIL_TOL}"
                                 f" or n^4-weighted tail {tail4:.3e} > {TAIL_TOL} E[n^4]")
        amps.append(amplitude(n))
        mass = abs(amps[-1]) ** 2
        tail, tail4 = tail - mass, tail4 - n**4 * mass
    stop = len(amps) + CUTOFF_MARGIN if cutoff is None else cutoff + 1
    amps += map(amplitude, range(len(amps), stop))
    return np.array(amps, dtype=complex)


def _squeezed(r: float):
    """(n -> <n|S(r)|0>, a floor on the mass from level n on).  The amplitude is zero at odd
    n, and at n = 2k it is c_2k = c_{2k-2} tanh(r) sqrt((2k - 1)/(2k)), c_0 = 1/sqrt(cosh r),
    each level computed once, in order, as it is first asked for.  Past the fill's level
    limit, r < 99: the J = ceil(cosh^2 r) even levels 2k from n on, 2k <= n + 2J - 1,
    each hold sech(r) tanh(r)^2k C(2k, k)/4^k >= sech(r) tanh(r)^(n+2J-1)/sqrt(2(n+2J-1)),
    which the floor sums, where one level falls short of the tail by about cosh^2 r."""
    t, j, even = tanh(r), ceil(cosh(min(r, 99)) ** 2), []

    def amplitude(n):
        while len(even) <= n // 2:
            k = len(even)
            even.append(even[-1] * t * sqrt((2 * k - 1) / (2 * k)) if k else 1.0 / sqrt(cosh(r)))
        return 0.0 if n % 2 else even[n // 2]

    return amplitude, lambda n: j * t ** (n + 2 * j - 1) / (cosh(r) * sqrt(2 * (n + 2 * j - 1)))


def _two_mode_squeezed(lam: float):
    """(n -> <n,n|TSV> = sqrt(1 - x) x^(n/2), the mass from level n on x^n), x = lam/(1 + lam)."""
    x = lam / (1.0 + lam)
    c, s = sqrt(1.0 - x), sqrt(x)
    return (lambda n: c * s**n), lambda n: x**n


def _lowered(amplitude, m: int, modes: int, shift: int = 0):
    """n -> amplitude(n + m) ((n + m)!/n!)^(modes/2) 2^-shift, a^m on each of ``modes`` modes:
    p(n) = (n + m)!/n! steps exactly from the level last asked for, p(n) = p(n - 1)(n + m)/n,
    rounded once per level; OutOfRange where its factor passes the float range."""
    last, last_p = 0, factorial(m)  # the last n asked for, and its p

    def lowered(n):
        nonlocal last, last_p
        k, p = (last, last_p) if n >= last else (0, factorial(m))
        while k < n:
            k += 1
            p = p * (k + m) // k
        last, last_p = n, p
        if (bits := p.bit_length()) * modes // 2 - shift > 1022:  # where the parent underflows
            raise OutOfRange(f"the a^{m} factor of level {n + m} passes the float range")
        e = bits - 1023 & -2 if bits > 1023 else 0  # p 2^-e is a float, e even for the root
        return amplitude(n + m) * ldexp(float(p >> e) ** (modes / 2), e * modes // 2 - shift)

    return lowered


def squeezed_vacuum(r: float, cutoff: int | None = None) -> FockState1:
    """Single-mode squeezed vacuum S(r)|0> with <N> = sinh^2 r, which the
    fill's mean check reads at min(r, 99): past any level limit, and finite."""
    check(r=r, cutoff=cutoff)
    amplitude, floor = _squeezed(r)
    return FockState1(_filled(amplitude, cutoff, sinh(min(r, 99)) ** 2, floor)).normalized()


def two_mode_squeezed_vacuum(lam: float, cutoff: int | None = None) -> TwoModeDiagonalState:
    """Two-mode squeezed vacuum with mean photons per mode lambda."""
    check(lam=lam, cutoff=cutoff)
    amplitude, floor = _two_mode_squeezed(lam)
    return TwoModeDiagonalState(_filled(amplitude, cutoff, lam, floor)).normalized()


def subtracted(spec, cutoff: int | None = None) -> _FockState:
    """The Fock state of a PassvSpec or SpatsvSpec (ValueError for anything else): a^m on each
    of its modes of the squeezed vacuum (one) or TSV (two).  Level n is the parent's
    at n + m, lowered (:func:`_lowered`) over the root of the table's norm, both scaled
    exactly to stay floats.  By default their fill is the state, sized for the oracle's
    read-out moments of order 4 in the counts: its n^4-weighted tail, against E[n^4] =
    sum_k S(4, k) <a^dag^k a^k> of one mode, exact from the table (S the Stirling numbers
    of the second kind), is at most TAIL_TOL E[n^4] (:func:`_filled`), where the mass rule
    alone left 1.9e-8 of it at SpatsvSpec(10, 0).  It is refused first where the
    parent's tail floor from n + m passes the level limit (a^m tilts the counts to higher n);
    a given cutoff bounds the parent, checked against its tail, and one below m, which holds
    no level of the state, is CutoffTooSmall at any lam > 0."""
    check_type("spec", spec, (states.PassvSpec, states.SpatsvSpec))
    m, modes = spec.m, spec.modes
    state, build, parent, squeezing = (
        (FockState1, squeezed_vacuum, _squeezed, spec.r) if modes == 1 else
        (TwoModeDiagonalState, two_mode_squeezed_vacuum, _two_mode_squeezed, spec.lam))
    amplitude, floor = parent(squeezing)
    if cutoff is not None:  # the parent's levels: the builder checks the cutoff, and its tail
        amplitude = build(squeezing, cutoff).amplitudes.tolist().__getitem__
    table = spec.table()
    if cutoff is not None and cutoff < m:  # after the table, which refuses lam = 0 as null
        raise CutoffTooSmall(f"a cutoff of {cutoff} holds no level of the a^{m} state")
    power = -table.shift * table.norm_degree  # the norm, over 4^shift in [1/2, 2), and
    shift = (table.norm.bit_length() + power) // 2  # the factors over 2^shift, exactly
    scale = 1.0 / sqrt(ratio(table.norm, 1, power - 2 * shift))
    lowered = _lowered(amplitude, m, modes, shift)
    if cutoff is None:  # the mean lies below the subtracted state's
        fourth = sum(s * table.entry((k, k) + (0, 0) * (modes - 1))
                     for k, s in zip(range(1, 5), (1, 7, 6, 1)))  # S(4, k)
        amps = _filled(lambda n: lowered(n) * scale, None, spec.lam, lambda n: floor(n + m),
                       fourth)
    else:
        amps = np.array(list(map(lowered, range(cutoff + 1 - m))), dtype=complex) * scale
    return state(amps).normalized()


# ---------------------------------------------------------------------------
# Brute-force interferometer oracle
# ---------------------------------------------------------------------------


def _check_memory(shape):
    total = prod(shape)
    if total > MAX_AMPLITUDES:
        raise MemoryBoundExceeded(
            f"tensor of {total} amplitudes exceeds bound {MAX_AMPLITUDES}"
        )


def _displacements(xs, log_fact: np.ndarray, cols: int) -> np.ndarray:
    """<m|D(sqrt x)|n>, real, for each x of ``xs`` over rows m < dim = len(log_fact), log_fact[k]
    = log k!, and columns n < cols <= dim; D(beta) = e^(i theta N) D(|beta|) e^(-i theta N).

    Along each diagonal a = |m - n| the entries are normalised Laguerre
    functions of x (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)),

        f_n(a) = sqrt(n! / (n + a)!) x^(a/2) e^(-x/2) L_n^(a)(x),
        <n + a|D|n> = f_n(a),   <n|D|n + a> = (-1)^a f_n(a),

    filled from f_0(a) = e^(-x/2) x^(a/2) / sqrt(a!) by the three-term recurrence

        sqrt(n (n + a)) f_n = (2n - 1 + a - x) f_{n-1} - sqrt((n - 1)(n - 1 + a)) f_{n-2}.

    Every f_n(a) is an entry of a unitary, so the recurrence stays bounded,
    where the column recursion D|n> = (a^dag - beta*) D|n-1> / sqrt(n) grows
    without bound in floats.  x = 0 gives the identity exactly.
    """
    x = np.asarray(xs, dtype=float)[:, None]
    planes, dim = len(x), len(log_fact)
    a, n = np.arange(dim), np.arange(cols)[:, None, None]
    root = np.sqrt(n * (n + a))
    # f_n = lin f_{n-1} - back f_{n-2}, (-back, lin) = (-root[n - 1], 2n - 1 + a - x) / root[n]
    coef = np.empty((cols - 1, 2, planes, dim))
    coef[:, 0], coef[:, 1] = -root[:-1] / root[1:], (2 * n[1:] - 1 + a - x) / root[1:]
    # f[0, n + 1] = f_n after a row f_{-1} = 0, f[1] = (-1)^a f[0] for above the diagonal;
    # f_0 in log space, which no x overflows; at x = 0 only f_0(0) = 1 is non-zero
    f = np.zeros((2, cols + 1, planes, dim))
    log_x = np.log(x, out=np.zeros_like(x), where=x > 0)
    f[0, 1] = np.where(x > 0, np.exp((a * log_x - x - log_fact) / 2), a == 0)
    level, terms = f[0], np.empty((2, planes, dim))
    for k in range(1, cols):
        np.multiply(coef[k - 1], level[k - 1:k + 1], out=terms)
        np.add(*terms, out=level[k + 1])
    level[1:, x[:, 0] == 0, 0] = 1.0  # f_n(0) at x = 0, which -back + lin need not round to
    np.multiply(level, 1 - 2 * (a % 2), out=f[1])
    # <m|D|n> of plane b is f[m < n, min(m, n) + 1, b, |m - n|], one flat index
    rows, columns, step = a[:, None], a[:cols], planes * dim - 1
    at = np.where(columns > rows, level.size + columns + rows * step, rows + columns * step)
    return f.take(at + dim * np.arange(planes, 2 * planes)[:, None, None])


def mzi_unitary(phi: float) -> np.ndarray:
    """Composite Mach-Zehnder map for ports (coherent, quantum)."""
    u = (np.exp(1j * phi) + 1.0) / 2.0
    v = (np.exp(1j * phi) - 1.0) / 2.0
    return np.array([[u, v], [v, u]])


def _thinning(log_fact: np.ndarray, eta: float) -> np.ndarray:
    """mat[k, n] = C(n, k) eta^k (1 - eta)^(n - k) for counts k, n < len(log_fact), zero for
    k > n (log_fact[j] = log j!): detection loss, a beamsplitter to vacuum, in photon numbers.
    Each entry is one exp of its log, so no factor underflows alone where the entry does not."""
    j = np.arange(len(log_fact))
    with np.errstate(divide="ignore"):  # j log eta, j log(1 - eta), 0 at j = 0 also where -inf
        kept, lost = np.multiply(j, np.log([[eta], [1 - eta]]), out=np.zeros((2, len(j))),
                                 where=j > 0) - log_fact
    # lost[n - k], and -inf below the diagonal (k > n), at the index n - k + len(j) - 1
    lost = np.append(np.full(len(j) - 1, -np.inf), lost)[j - j[:, None] + len(j) - 1]
    return np.exp(log_fact + kept[:, None] + lost)


@dataclass(frozen=True)
class OracleResult:
    """Read-out statistics from the oracle."""

    joint: np.ndarray  # P(n_a, n_b) over the two read-out ports
    moments: dict  # (p, q) -> <N_a^p N_b^q>, p + q <= 4


def _moments_from_joint(joint: np.ndarray) -> dict:
    powers = np.arange(5)[:, None]
    na, nb = (np.arange(size, dtype=float) ** powers for size in joint.shape)
    # every <N_a^p N_b^q> for p, q <= 4 as one product
    table = na @ joint @ nb.T
    return {(p, q): float(table[p, q]) for p in range(5) for q in range(5 - p)}


def oracle_interferometer(cfg, cutoff: int | None = None) -> OracleResult:
    """Joint read-out counts, thinned by eta, of a ``SingleMziConfig`` or ``CorrelatedConfig``:
    its spec's Fock state at ``cutoff`` (:func:`subtracted`), a PASSV beside
    the coherent state in one MZI, or a SPATSV in twin MZIs, one copy of it in each.

    Each MZI, U = ``mzi_unitary(phi)``, works on photon counts below its
    joint capacity D = nc + nq - 1.  As the coherent port holds a displaced
    vacuum, U(|alpha> (x) |q>) = D_1(u00 alpha) D_2(u10 alpha) U(|0> (x) |q>),
    and U|0, j> = sum_p y[p, j-p] |p, j-p>, y[p, s] = sqrt(C(p+s, p)) u01^p u11^s.
    Of D_i = e^(i theta_i N) R_i e^(-i theta_i N) (:func:`_displacements`, first
    nq columns: the coherent state enters untruncated) the read-out phase moves
    no count, and the quantum one rides on y as w01 = u01 e^(-i theta_1) and
    w11 = u11 e^(-i theta_2).  Each |y[p, s]| = sqrt(C(p+s, p)) |w01|^p |w11|^s is one
    exp of its log sum: the root alone overflows past about 1,025 levels, where the
    powers underflow.  One MZI gives the plane R_1 Y R_2^T,
    Y[p, s] = y[p, s] d_{p+s}, read on both axes.  Twin MZIs take sum_n d_n |n, n>
    to sum_n d_n psi_n (x) psi_n, psi_n = U(|alpha> (x) |n>); D_1, on a discarded
    port alone, drops out by its unitarity of G_nk(a) = sum_c psi_n[c, a]
    conj(psi_k[c, a]) = sum_p y[p, n-p] conj(y[p, k-p]) R_2[a, n-p] R_2[a, k-p],
    e^(i (n - k) arg w11) times a real matrix.  That phase on d_n twice makes
    P(a, b) = sum_{n,k} d_n conj(d_k) G_nk(a) G_nk(b) a real product.  Only
    feasible for small coherent energy (mu <~ 10): :data:`MAX_AMPLITUDES` bounds
    the largest array, the D x D plane or the D Gram matrices, nq x nq, before
    it is allocated, and its floor nq^2 or nq^3 before the state is filled.
    """
    check(cutoff=cutoff)
    spec = cfg.quantum  # nq levels: an explicit cutoff fixes them, a default one passes the mean
    nq = spec.mean_photons if cutoff is None else cutoff + 1 - spec.m
    _check_memory((nq,) * (spec.modes + 1))  # nq^2 (one MZI) or nq^3 (twins), before any fill
    q = subtracted(spec, cutoff)
    d, twin = q.amplitudes, q.modes == 2
    nq = len(d)
    mu = cfg.mu  # the coherent port's levels: those of its real amplitudes |<n|alpha>|
    poisson = (lambda n: exp((n * log(mu) - mu - lgamma(n + 1)) / 2)) if mu else (lambda n: n == 0)
    dim = len(_filled(poisson, mean=mu)) + nq - 1
    _check_memory((dim, nq, nq) if twin else (dim, dim))
    u2 = mzi_unitary(cfg.phi)
    # log k!, one table for f_0, the binomials, whose p + s reaches 2 nq - 2, and the thinning
    log_fact = np.array(list(map(lgamma, range(1, max(dim, 2 * nq - 1) + 1))))
    # R_1 and R_2, or for twin MZIs R_2 alone: their D_1 drops out of the read-out
    betas = u2[int(twin):, 0] * (sqrt(mu) * np.exp(1j * cfg.psi))  # alpha's images
    *r1, r2 = _displacements(np.abs(betas) ** 2, log_fact[:dim], nq)
    # (w01, w11) as a column; twin MZIs read |w01| alone
    w = (u2[:, 1] * np.exp(-1j * np.angle(betas[[0, -1]])))[:, None]
    n, p = np.arange(nq)[:, None], np.arange(nq)
    # |y[a, b]| = sqrt(C(a + b, a)) |w01|^a |w11|^b, one exp of its log sum: no factor
    # overflows or underflows alone, and a zero |w| gives 0^0 = 1 at a or b = 0
    with np.errstate(divide="ignore"):  # log 0 = -inf, read only where a or b > 0
        logs = np.multiply(p, np.log(abs(w)), out=np.zeros((2, nq)), where=p > 0)
    size = np.exp((log_fact[n + p] - log_fact[n] - log_fact[p]) / 2 + logs[0][:, None] + logs[1])
    if twin:
        # v[a, n, p] = |y[p, n - p]| R_2[a, n - p], n >= p; G(a) = (v v^T)[a]; one (n, k) sum
        lag = np.maximum(n - p, 0)
        v = size[p, lag] * (n >= p) * r2[:, lag]
        g = (v @ v.transpose(0, 2, 1).copy()).reshape(dim, -1)
        turned = d * np.exp(2j * np.angle(w[1]) * p)
        joint = (g * np.outer(turned, turned.conj()).real.ravel()) @ g.T
    else:
        turns = np.exp(1j * np.angle(w) * p)  # the phases of w01^a and w11^b
        y = size * np.outer(*turns) * np.append(d, np.zeros(nq - 1))[n + p]
        plane = r1[0] @ (np.stack((y.real, y.imag)) @ r2.T)  # R_1 Y R_2^T, Re and Im
        joint = np.add(*np.square(plane, out=plane))
    if cfg.eta < 1.0:
        thin = _thinning(log_fact[:dim], cfg.eta)
        joint = thin @ joint @ thin.T
    return OracleResult(joint, _moments_from_joint(joint))
