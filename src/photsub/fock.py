"""Truncated Fock-space numerics.

Exact small-scale state construction (squeezed, two-mode squeezed),
photon subtraction, and a brute-force interferometer oracle used to validate
the symbolic moment engine.  Each state is one amplitude function
n -> <n|state>; one filler turns it into an array, by default up to the
least level whose tail mass is below TAIL_TOL plus CUTOFF_MARGIN levels, and
checks a given cutoff against the same tail.  The MZI turns the coherent
port's displacement into one displacement of each output port around the
closed-form image of |0> (x) |quantum>, their entries normalised Laguerre
functions filled by a recurrence over the nq quantum levels.  The single
scheme's output is one D x D plane: O(D nq^2) work.  The twin MZIs'
discarded coherent ports drop out of the read-out by the unitarity of their
displacements, which leaves one nq x nq Gram matrix per read-out count.

Conventions
-----------
Single-mode squeezing at chi=0 squeezes the Y = (a - a^dag)/(i sqrt 2)
quadrature: Var(Y) = exp(-2r)/2.  Mean photon number of S(r)|0> is sinh^2(r).
The 50:50 interferometer map is

    a_out1 = u a_in1 + v a_in2,   a_out2 = v a_in1 + u a_in2,

with u = (e^{i phi} + 1)/2 and v = (e^{i phi} - 1)/2, which yields
<N_out1 - N_out2> = (mu - lambda) cos(phi) for a coherent state in port 1 and
a zero-mean-quadrature state in port 2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import cosh, lgamma, log, prod, sinh, sqrt, tanh

import numpy as np

from .errors import (  # MAX_AMPLITUDES bounds the oracle's largest array, read at each call
    MAX_AMPLITUDES, CutoffTooSmall, MemoryBoundExceeded, ModeMismatch, NullState, check)

TAIL_TOL = 1e-12
NULL_THRESHOLD = 1e-300
#: adaptive constructors keep this many slots of headroom above the tail
CUTOFF_MARGIN = 5


@dataclass(frozen=True)
class FockState1:
    """Single-mode pure state as a complex amplitude vector over |0..cutoff>."""

    amplitudes: np.ndarray

    @property
    def cutoff(self) -> int:
        return len(self.amplitudes) - 1

    def normalized(self) -> "FockState1":
        norm = np.linalg.norm(self.amplitudes)
        if norm < NULL_THRESHOLD:
            raise NullState("cannot normalize a null state")
        return FockState1(self.amplitudes / norm)


@dataclass(frozen=True)
class TwoModeDiagonalState:
    """Two-mode pure state supported on {|n,n>}; entry n multiplies |n,n>."""

    diag_amplitudes: np.ndarray

    @property
    def cutoff(self) -> int:
        return len(self.diag_amplitudes) - 1

    def normalized(self) -> "TwoModeDiagonalState":
        norm = np.linalg.norm(self.diag_amplitudes)
        if norm < NULL_THRESHOLD:
            raise NullState("cannot normalize a null state")
        return TwoModeDiagonalState(self.diag_amplitudes / norm)


def _filled(amplitude, cutoff: int | None = None, mean: float = 0.0,
            floor=lambda n: 0.0) -> np.ndarray:
    """The amplitudes ``amplitude(n)`` of a unit-norm state for n = 0 .. cutoff.

    By default the cutoff is the least level whose tail mass is below
    TAIL_TOL, plus CUTOFF_MARGIN, at most 10^6.  CutoffTooSmall is raised for
    a given ``cutoff`` that leaves a larger tail and, before any fill, for a
    ``mean`` photon number past the cutoff or that limit, or where
    ``floor(n)``, a lower bound on the mass from level n on, passes 1000
    TAIL_TOL past it: the fill, its float tail within 1e-12, refuses it too.
    """
    amps = []
    tail = 1.0  # the tail as it shrinks rounds far finer than the mass near 1
    limit = 1_000_000 if cutoff is None else cutoff
    if mean > limit or floor(limit + 1) > 1000 * TAIL_TOL:
        raise CutoffTooSmall(f"a state of {mean:.3g} mean photons needs more than {limit} levels")
    while tail > TAIL_TOL:
        if len(amps) > limit:
            raise CutoffTooSmall(f"{len(amps)} levels leave tail mass {tail:.3e} > {TAIL_TOL}")
        amps.append(amplitude(len(amps)))
        tail -= abs(amps[-1]) ** 2
    stop = len(amps) + CUTOFF_MARGIN if cutoff is None else cutoff + 1
    amps += map(amplitude, range(len(amps), stop))
    return np.array(amps, dtype=complex)


def _coherent(alpha: complex):
    """n -> <n|alpha> = e^{-|alpha|^2/2} alpha^n / sqrt(n!), in log space."""
    if alpha == 0:
        return lambda n: complex(n == 0)
    log_r = log(abs(alpha))
    theta = cmath.phase(alpha)
    mu = abs(alpha) ** 2
    return lambda n: cmath.exp(complex(n * log_r - mu / 2 - lgamma(n + 1) / 2, n * theta))


def _squeezed(r: float, chi: float):
    """n -> <n|S(r e^{i chi})|0>: zero at odd n, and at n = 2k e^{i chi k} c_2k with

        c_2k = c_{2k-2} tanh(r) sqrt((2k - 1)/(2k)),   c_0 = 1/sqrt(cosh r),

    each real level computed once, in order, as it is first asked for, so the
    level masses, and with them the default cutoff, do not depend on chi.
    """
    t = tanh(r)
    even = []

    def amplitude(n):
        while len(even) <= n // 2:
            k = len(even)
            even.append(even[-1] * t * sqrt((2 * k - 1) / (2 * k)) if k else 1.0 / sqrt(cosh(r)))
        return 0j if n % 2 else even[n // 2] * cmath.exp(1j * chi * (n // 2))

    return amplitude


def _two_mode_squeezed(lam: float, chi: float):
    """n -> <n,n|TSV> = sqrt(1 - x) (e^{i chi} sqrt x)^n, x = lam / (1 + lam)."""
    x = lam / (1.0 + lam)
    s = sqrt(x) * cmath.exp(1j * chi)
    return lambda n: sqrt(1.0 - x) * s**n


def _falling(n: int, m: int, power: int) -> float:
    """((n + m)!/n!)^(power/2): a^m takes |n + m> to this times |n> in each of ``power`` modes."""
    return float(prod(range(n + 1, n + m + 1))) ** (power / 2)


def squeezed_vacuum(r: float, chi: float = 0.0, cutoff: int | None = None) -> FockState1:
    """Single-mode squeezed vacuum S(r e^{i chi})|0> with <N> = sinh^2 r, which the
    fill's mean check reads at min(r, 99): past any level limit, and finite.  Past
    it, cosh r is finite, and the levels from n on hold their first even one, 2k <=
    n + 1, of mass sech(r) tanh(r)^2k C(2k, k)/4^k >= sech(r) tanh(r)^(n+1) sqrt(2/(n+1))."""
    check(r=r, chi=chi, cutoff=cutoff)
    floor = lambda n: tanh(r) ** (n + 1) * sqrt(2 / (n + 1)) / cosh(r)
    return FockState1(_filled(_squeezed(r, chi), cutoff, sinh(min(r, 99)) ** 2, floor)).normalized()


def two_mode_squeezed_vacuum(
    lam: float, chi: float = 0.0, cutoff: int | None = None
) -> TwoModeDiagonalState:
    """Two-mode squeezed vacuum with mean photons per mode lambda: the levels from
    n on hold (lam/(1 + lam))^n, which the fill checks before it fills."""
    check(lam=lam, chi=chi, cutoff=cutoff)
    return TwoModeDiagonalState(_filled(_two_mode_squeezed(lam, chi), cutoff, lam,
                                        lambda n: (lam / (1.0 + lam)) ** n)).normalized()


def subtract_photons(state, m: int):
    """Apply a^m (per mode for two-mode diagonal states) and renormalize.

    Returns ``(new_state, norm)`` where ``norm`` is the pre-normalization norm
    of the subtracted vector (the success amplitude).
    """
    check(m=m)
    if m == 0:
        return state, 1.0
    if isinstance(state, FockState1):
        amps, power, kind = state.amplitudes, 1, FockState1
    elif isinstance(state, TwoModeDiagonalState):
        amps, power, kind = state.diag_amplitudes, 2, TwoModeDiagonalState
    else:
        raise TypeError(f"unsupported state type {type(state)!r}")
    if len(amps) <= m:
        raise NullState(f"state has no support above level {m}")
    new = amps[m:] * [_falling(n, m, power) for n in range(len(amps) - m)]
    norm = float(np.linalg.norm(new))
    if norm < NULL_THRESHOLD:
        raise NullState("photon subtraction annihilated the state")
    return kind(new / norm), norm


# ---------------------------------------------------------------------------
# Brute-force interferometer oracle
# ---------------------------------------------------------------------------


def _check_memory(shape):
    total = prod(shape)
    if total > MAX_AMPLITUDES:
        raise MemoryBoundExceeded(
            f"tensor of {total} amplitudes exceeds bound {MAX_AMPLITUDES}"
        )


def _displacements(betas, dim: int, cols: int) -> np.ndarray:
    """<m|D(beta)|n> for each of ``betas``, over rows m < dim and columns n < cols <= dim.

    Along each diagonal a = |m - n| the entries are normalised Laguerre
    functions of x = |beta|^2 (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)),

        f_n(a) = sqrt(n! / (n + a)!) x^(a/2) e^(-x/2) L_n^(a)(x),
        <n + a|D(beta)|n> = e^(i a arg beta) f_n(a),
        <n|D(beta)|n + a> = (-e^(-i arg beta))^a f_n(a),

    filled from f_0(a) = e^(-x/2) x^(a/2) / sqrt(a!) by the three-term recurrence

        sqrt(n (n + a)) f_n = (2n - 1 + a - x) f_{n-1} - sqrt((n - 1)(n - 1 + a)) f_{n-2}.

    Every f_n(a) is an entry of a unitary, so the recurrence stays bounded,
    where the column recursion D|n> = (a^dag - beta*) D|n-1> / sqrt(n) grows
    without bound in floats.  beta = 0 gives the identity exactly.
    """
    betas = np.asarray(betas, dtype=complex)[:, None]
    x = np.abs(betas) ** 2
    a = np.arange(dim)
    n = np.arange(1, cols)[:, None]
    lin = 2 * n - 1 + a - x[:, None]  # lin[b, n - 1, a], one row per beta
    back = np.sqrt((n - 1) * (n - 1 + a))
    den = np.sqrt(n * (n + a))
    f = np.empty((len(betas), cols, dim))
    # f_0 in log space, which no x overflows; at x = 0 only f_0(0) = 1 is non-zero
    log_x = np.log(x, out=np.zeros_like(x), where=x > 0)
    log_fact = np.array([lgamma(k + 1) for k in range(dim)])
    f[:, 0] = np.where(x > 0, np.exp((a * log_x - x - log_fact) / 2), a == 0)
    before = np.zeros((len(betas), dim))
    for k in range(1, cols):
        f[:, k] = (lin[:, k - 1] * f[:, k - 1] - back[k - 1] * before) / den[k - 1]
        before = f[:, k - 1]
    rows, columns = np.arange(dim)[:, None], np.arange(cols)
    offset = rows - columns
    # the phase of diagonal d = m - n, at index d + cols - 1
    d = np.arange(1 - cols, dim)
    phase = np.exp(1j * np.angle(betas) * d) * np.where((d < 0) & (d % 2 == 1), -1.0, 1.0)
    return f[:, np.minimum(rows, columns), np.abs(offset)] * phase[:, offset + cols - 1]


def mzi_unitary(phi: float) -> np.ndarray:
    """Composite Mach-Zehnder map for ports (coherent, quantum)."""
    u = (np.exp(1j * phi) + 1.0) / 2.0
    v = (np.exp(1j * phi) - 1.0) / 2.0
    return np.array([[u, v], [v, u]])


def _thinning(dim: int, eta: float) -> np.ndarray:
    """mat[k, n] = C(n, k) eta^k (1 - eta)^(n - k) for counts k, n < dim, zero for k > n:
    detection loss, a beamsplitter to vacuum, as read out in photon numbers."""
    log_fact = np.array([lgamma(n + 1) for n in range(dim)])
    k, n = np.ogrid[:dim, :dim]
    lost = np.maximum(n - k, 0)
    binom = np.exp(log_fact[n] - log_fact[k] - log_fact[lost])
    return np.triu(binom * eta**k * (1.0 - eta) ** lost)


@dataclass(frozen=True)
class OracleScene:
    """Scene for the brute-force interferometer oracle.

    The quantum input picks the scheme: a :class:`FockState1` enters one MZI
    beside the coherent state; a :class:`TwoModeDiagonalState` feeds twin
    MZIs, each beside its own copy of the coherent state.  Every MZI runs at
    ``phi``.  :data:`MAX_AMPLITUDES` bounds the oracle's largest array: the
    D x D plane of one MZI, or the D Gram matrices, nq x nq, of twin MZIs.
    """

    quantum: object
    mu: float
    psi: float
    phi: float
    eta: float = 1.0

    def __post_init__(self):
        check(mu=self.mu, psi=self.psi, phi=self.phi, eta=self.eta)


@dataclass(frozen=True)
class OracleResult:
    """Read-out statistics from the oracle."""

    joint: np.ndarray  # P(n_a, n_b) over the two read-out ports
    moments: dict  # (p, q) -> <N_a^p N_b^q>, p + q <= 4


def _moments_from_joint(joint: np.ndarray) -> dict:
    powers = np.arange(5)[:, None]
    na = np.arange(joint.shape[0], dtype=float) ** powers
    nb = np.arange(joint.shape[1], dtype=float) ** powers
    # every <N_a^p N_b^q> for p, q <= 4 as one product
    table = na @ joint @ nb.T
    return {(p, q): float(table[p, q]) for p in range(5) for q in range(5 - p)}


def oracle_interferometer(scene: OracleScene) -> OracleResult:
    """Joint photon counts of the read-out ports, binomially thinned by eta.

    Each MZI, U = ``mzi_unitary(phi)``, works on photon counts below its
    joint capacity D = nc + nq - 1.  As the coherent port holds a displaced
    vacuum, U(|alpha> (x) |q>) = D_1(u00 alpha) D_2(u10 alpha) U(|0> (x) |q>),
    and U|0, j> = sum_p y[p, j-p] |p, j-p>, y[p, s] = sqrt(C(p+s, p)) u01^p u11^s.
    A :class:`FockState1` gives the plane Da Y Db^T, read on both axes: Y
    holds U(|0> (x) |q>) on the nq x nq corner and Da, Db are the two
    displacements' first nq columns (the coherent state enters untruncated).
    The twin-MZI input sum_n d_n |n, n> has output sum_n d_n psi_n (x) psi_n,
    psi_n = U(|alpha> (x) |n>).  D_1 acts on each MZI's discarded coherent
    port alone, so by its unitarity it drops out of
    G_nk(a) = sum_c psi_n[c, a] conj(psi_k[c, a]), which is
    sum_p y[p, n-p] conj(y[p, k-p]) Db[a, n-p] conj(Db[a, k-p]), and the
    quantum-port joint is P(a, b) = sum_{n,k} d_n conj(d_k) G_nk(a) G_nk(b).
    Only feasible for small coherent energy (mu <~ 10); the memory bound is
    enforced on the largest array before it is allocated.
    """
    alpha = sqrt(scene.mu) * np.exp(1j * scene.psi)
    q = scene.quantum
    twin = isinstance(q, TwoModeDiagonalState)
    if not twin and not isinstance(q, FockState1):
        raise ModeMismatch(
            "oracle needs a FockState1 (single MZI) or a TwoModeDiagonalState "
            f"(twin MZIs) quantum input, got {type(q).__name__}"
        )
    d = q.diag_amplitudes if twin else q.amplitudes
    nq = len(d)
    dim = len(_filled(_coherent(alpha), mean=scene.mu)) + nq - 1
    _check_memory((dim, nq, nq) if twin else (dim, dim))
    u2 = mzi_unitary(scene.phi)
    # Da and Db, or for twin MZIs Db alone: their Da drops out of the read-out
    *da, db = _displacements(u2[int(twin):, 0] * alpha, dim, nq)
    # y[p, s] = sqrt(C(p + s, p)) u01^p u11^s as products down each column:
    # every partial product is such an amplitude, of modulus <= 1
    p, s = np.ogrid[:nq, :nq]
    y = u2[0, 1] * np.sqrt((p + s) / np.maximum(p, 1))
    y[0] = u2[1, 1]
    y[0, 0] = 1.0
    y[0] = np.cumprod(y[0])
    y = np.cumprod(y, axis=0)
    if twin:
        # v[a, n, p] = y[p, n - p] Db[a, n - p], g[a, n, k] = G_nk(a) = (v v^H)[a],
        # then the (n, k) sum as one product
        n, p = np.ogrid[:nq, :nq]
        lag = np.maximum(n - p, 0)
        v = (y[p, lag] * (n >= p)) * db[:, lag]
        g = (v @ v.conj().transpose(0, 2, 1)).reshape(dim, -1)
        joint = ((g * np.outer(d, d.conj()).ravel()) @ g.T).real
    else:
        y = y * np.append(d, np.zeros(nq - 1))[p + s]
        joint = np.abs(da[0] @ y @ db.T) ** 2
    if scene.eta < 1.0:
        thin = _thinning(dim, scene.eta)
        joint = thin @ joint @ thin.T
    return OracleResult(joint, _moments_from_joint(joint))
