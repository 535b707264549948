"""Truncated Fock-space numerics.

Exact small-scale state construction (coherent, squeezed, two-mode squeezed),
photon subtraction, and a brute-force interferometer oracle used to validate
the symbolic moment engine.  Each state is one amplitude function
n -> <n|state>; one filler turns it into an array, by default up to the
least level whose tail mass is below TAIL_TOL plus CUTOFF_MARGIN levels, and
checks a given cutoff against the same tail.  The oracle evolves a stack of
single-MZI planes |coherent> (x) |quantum>: one plane for the single scheme,
one per |n, n> of the twin beam for the correlated scheme, whose twin-MZI
output is the sum of products of two planes.  Each plane goes through the
MZI one photon-number block at a time: a passive two-mode map couples only
states of equal total photon number, the blocks stop at the highest photon
number the plane holds, and block n spans only the w_n input columns the
nc x nq corner can occupy, so a plane costs sum_n (n + 1) w_n where a dense
matrix would take D^4.

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
from math import cosh, lgamma, log, prod, sqrt, tanh

import numpy as np

from .errors import CutoffTooSmall, MemoryBoundExceeded, ModeMismatch, NullState

TAIL_TOL = 1e-12
NULL_THRESHOLD = 1e-300
#: adaptive constructors keep this many slots of headroom above the tail
CUTOFF_MARGIN = 5
#: bound on the number of amplitudes in the oracle's stack of planes, read at each call
MAX_AMPLITUDES = 30_000_000


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


def _filled(amplitude, cutoff: int | None = None) -> np.ndarray:
    """The amplitudes ``amplitude(n)`` of a unit-norm state for n = 0 .. cutoff.

    By default the cutoff is the least level whose tail mass is below
    TAIL_TOL, plus CUTOFF_MARGIN; a given ``cutoff`` that leaves a larger
    tail raises CutoffTooSmall.
    """
    amps = []
    tail = 1.0  # the tail as it shrinks rounds far finer than the mass near 1
    limit = 1_000_000 if cutoff is None else cutoff
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
    """n -> <n|S(r e^{i chi})|0>: zero at odd n, and at n = 2k

        c_2k = c_{2k-2} e^{i chi} tanh(r) sqrt((2k - 1)/(2k)),   c_0 = 1/sqrt(cosh r),

    each level computed once, in order, as it is first asked for.
    """
    s = tanh(r) * cmath.exp(1j * chi)
    even = [1.0 / sqrt(cosh(r)) + 0j]

    def amplitude(n):
        while len(even) <= n // 2:
            k = len(even)
            even.append(even[-1] * s * sqrt((2 * k - 1) / (2 * k)))
        return 0j if n % 2 else even[n // 2]

    return amplitude


def _two_mode_squeezed(lam: float, chi: float):
    """n -> <n,n|TSV> = sqrt(1 - x) (e^{i chi} sqrt x)^n, x = lam / (1 + lam)."""
    x = lam / (1.0 + lam)
    s = sqrt(x) * cmath.exp(1j * chi)
    return lambda n: sqrt(1.0 - x) * s**n


def _falling(n: int, m: int, power: int) -> float:
    """((n + m)!/n!)^(power/2): a^m takes |n + m> to this times |n> in each of ``power`` modes."""
    return float(prod(range(n + 1, n + m + 1))) ** (power / 2)


def coherent_state(alpha: complex, cutoff: int | None = None) -> FockState1:
    """Coherent state |alpha>, amplitudes e^{-|a|^2/2} a^n / sqrt(n!)."""
    return FockState1(_filled(_coherent(alpha), cutoff)).normalized()


def squeezed_vacuum(r: float, chi: float = 0.0, cutoff: int | None = None) -> FockState1:
    """Single-mode squeezed vacuum S(r e^{i chi})|0> with <N> = sinh^2 r."""
    if r < 0:
        raise ValueError("squeezing parameter r must be >= 0")
    return FockState1(_filled(_squeezed(r, chi), cutoff)).normalized()


def two_mode_squeezed_vacuum(
    lam: float, chi: float = 0.0, cutoff: int | None = None
) -> TwoModeDiagonalState:
    """Two-mode squeezed vacuum with mean photons per mode lambda."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return TwoModeDiagonalState(_filled(_two_mode_squeezed(lam, chi), cutoff)).normalized()


def subtract_photons(state, m: int):
    """Apply a^m (per mode for two-mode diagonal states) and renormalize.

    Returns ``(new_state, norm)`` where ``norm`` is the pre-normalization norm
    of the subtracted vector (the success amplitude).
    """
    if m < 0 or int(m) != m:
        raise ValueError("m must be a nonnegative integer")
    m = int(m)
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


def _photon_blocks(u2: np.ndarray, d1: int, d2: int, c1: int | None = None, c2: int | None = None):
    """Yield ``(lo, G)`` for each photon number n = 0 .. c1 + c2 of a d1 x d2 plane.

    G[p - lo, k - klo] = <p, n-p|U|k, n-k> for the passive map a_out = u2 . a_in,
    over the rows p from lo = max(0, n - d2 + 1) to min(n, d1 - 1) that fit the
    plane and the columns k from klo = max(0, n - c2) to min(n, c1) of an input
    held in rows <= c1 and columns <= c2 (by default the plane: G is square).
    As U a_k^dag U^dag = u2[:, k] . a^dag, block n follows from n-1 by

        U|k, n-k> = (sqrt(k) u2[:, 0].a^dag U|k-1, n-k> + sqrt(n-k) u2[:, 1].a^dag U|k, n-k-1>) / n,

    a step of operator norm <= 1, so rounding errors add up instead of growing
    with n.  Row p needs only rows p-1 and p of block n-1, and column k only
    its columns k-1 and k, so the windows keep the plane's truncation exactly
    and a column is the same, bit for bit, in every window that holds it.
    Blocks are computed as they are drawn: stop at the last n needed.
    """
    c1, c2 = d1 - 1 if c1 is None else c1, d2 - 1 if c2 is None else c2
    sq = np.sqrt(np.arange(d1 + d2, dtype=float))
    # u2[i, j] sqrt(p) as a column over p: the factor of row p-1 (i = 0) or p (i = 1)
    c00, c10, c01, c11 = (u2[i, j] * sq[:, None] for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)))
    scale = sq[: c1 + c2 + 1] / np.maximum(np.arange(c1 + c2 + 1), 1)[:, None]  # sqrt(k) / n
    # prev[i, j] is block n-1 at p, k = its lo - 1 + i, klo - 1 + j: zero on
    # row and column 0 and past its ends, and what a longer block left past a
    # shorter one lies outside every later window
    prev = np.zeros((min(d1, d2) + 2, min(c1, c2) + 3), dtype=complex)
    block, lo, klo = np.ones((1, 1), dtype=complex), 0, 0
    prev[1, 1] = 1.0
    yield lo, block
    for n in range(1, c1 + c2 + 1):
        prev_lo, lo, hi = lo, max(0, n - d2 + 1), min(n, d1 - 1)
        prev_klo, klo, khi = klo, max(0, n - c2), min(n, c1)
        # block n-1 on rows lo-1 .. hi and columns klo-1 .. khi
        s, t, rows, cols = lo - prev_lo, klo - prev_klo, hi - lo + 1, khi - klo + 1
        padded = prev[s : s + rows + 1, t : t + cols + 1]
        # c0 a1^dag + c1 a2^dag takes rows p-1 and p of block n-1 to row p
        p, n_p = slice(lo, hi + 1), slice(n - hi, n - lo + 1)  # p, and n - p reversed
        block = c00[p] * padded[:-1, :-1]
        block += c10[n_p][::-1] * padded[1:, :-1]
        block *= scale[n, klo : khi + 1]
        a2 = c01[p] * padded[:-1, 1:]
        a2 += c11[n_p][::-1] * padded[1:, 1:]
        a2 *= scale[n, n - khi : n - klo + 1][::-1]
        block += a2
        prev[1 : rows + 1, 1 : cols + 1] = block
        yield lo, block


def apply_two_mode_unitary(amps: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Apply a passive 2x2 mode map to the last two axes of ``amps``.

    The map keeps the photon number n of the two axes, so it acts on each
    anti-diagonal |k, n-k> of the (d1, d2) plane, a strided slice of the
    flattened plane, by one block of :func:`_photon_blocks`, and leaves every
    n above the input's highest occupied one empty: the blocks stop there.
    A block covers only the w_n columns that the rows <= c1 and columns <= c2
    holding every plane's amplitude can occupy, sum_n (n + 1) w_n
    multiply-adds where a dense plane matrix takes D^4, in O(D^2) memory
    beyond the input and output (and a copy of an input that is not
    contiguous); padded with zeros for the product, it gives the square
    blocks' output bit for bit.  Photon number beyond an axis's cutoff is
    dropped: keep headroom.
    """
    d1, d2 = amps.shape[-2:]
    flat = amps.reshape(-1, d1 * d2)
    out = np.zeros(flat.shape, dtype=complex)
    occupied = flat.any(axis=0).reshape(d1, d2)
    top = int(np.add.outer(np.arange(d1), np.arange(d2))[occupied].max(initial=-1))  # -1 if empty
    c1, c2 = (int(np.flatnonzero(occupied.any(axis=a)).max(initial=-1)) for a in (1, 0))
    step = max(d2 - 1, 1)
    for n, (lo, block) in zip(range(top + 1), _photon_blocks(u2, d1, d2, c1, c2)):
        rows, left, start = len(block), max(0, n - c2) - lo, lo * d2 + n - lo
        square = np.zeros((rows, rows), dtype=complex)
        square[:, left : left + block.shape[1]] = block
        diag = slice(start, start + (rows - 1) * step + 1, step)
        out[:, diag] = flat[:, diag] @ square.T
    return out.reshape(amps.shape)


def mzi_unitary(phi: float) -> np.ndarray:
    """Composite Mach-Zehnder map for ports (coherent, quantum)."""
    u = (np.exp(1j * phi) + 1.0) / 2.0
    v = (np.exp(1j * phi) - 1.0) / 2.0
    return np.array([[u, v], [v, u]])


def binomial_thinning(p: np.ndarray, eta: float, axis: int) -> np.ndarray:
    """Bernoulli-thin a photon-number distribution along one axis.

    Equivalent to a beamsplitter of transmission eta to a vacuum ancilla
    followed by marginalization over the ancilla outcome (valid because only
    photon-number observables are read out after the loss): count n keeps k
    with probability C(n, k) eta^k (1 - eta)^(n - k).
    """
    log_fact = np.array([lgamma(n + 1) for n in range(p.shape[axis])])
    k, n = np.ogrid[: len(log_fact), : len(log_fact)]
    lost = np.maximum(n - k, 0)
    binom = np.exp(log_fact[n] - log_fact[k] - log_fact[lost])
    mat = np.triu(binom * eta**k * (1.0 - eta) ** lost)  # mat[k, n], zero for k > n
    moved = np.moveaxis(p, axis, -1) @ mat.T
    return np.moveaxis(moved, -1, axis)


@dataclass(frozen=True)
class OracleScene:
    """Scene for the brute-force interferometer oracle.

    The quantum input picks the scheme: a :class:`FockState1` enters one MZI
    beside the coherent state; a :class:`TwoModeDiagonalState` feeds twin
    MZIs, each beside its own copy of the coherent state.  Every MZI runs at
    ``phi``.  :data:`MAX_AMPLITUDES` bounds the stack of D x D planes the
    oracle evolves: one plane for one MZI, one per |n, n> level for twin MZIs.
    """

    quantum: object
    mu: float
    psi: float
    phi: float
    eta: float = 1.0


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

    One path serves both schemes: a stack of single-MZI planes
    |coh> (x) |q_r>, each padded to the joint photon capacity of its MZI so
    the map cannot push amplitude past a cutoff, goes through
    ``mzi_unitary(phi)`` once.  A :class:`FockState1` gives one plane, read
    on both axes.  The twin-MZI input sum_n d_n |n, n> gives one plane psi_n
    per |n>, and its output is sum_n d_n psi_n (x) psi_n; with
    G_nk(a) = sum_c psi_n[c, a] conj(psi_k[c, a]) over each MZI's discarded
    coherent-port axis c, the quantum-port joint is
    P(a, b) = sum_{n,k} d_n conj(d_k) G_nk(a) G_nk(b).  Only feasible for
    small coherent energy (mu <~ 10); the memory bound is enforced on the
    stack before it is allocated.
    """
    coh = coherent_state(np.sqrt(scene.mu) * np.exp(1j * scene.psi)).amplitudes
    q = scene.quantum
    twin = isinstance(q, TwoModeDiagonalState)
    if not twin and not isinstance(q, FockState1):
        raise ModeMismatch(
            "oracle needs a FockState1 (single MZI) or a TwoModeDiagonalState "
            f"(twin MZIs) quantum input, got {type(q).__name__}"
        )
    planes = np.eye(len(q.diag_amplitudes)) if twin else q.amplitudes[None, :]
    rows, nc, nq = len(planes), len(coh), planes.shape[1]
    dim = nc + nq - 1
    _check_memory((rows, dim, dim))
    stack = np.zeros((rows, dim, dim), dtype=complex)
    stack[:, :nc, :nq] = coh[:, None] * planes[:, None, :]
    out = apply_two_mode_unitary(stack, mzi_unitary(scene.phi))
    if twin:
        # g[a, n, k] = G_nk(a), then the (n, k) sum as one product
        by_port = np.ascontiguousarray(out.transpose(2, 0, 1))
        g = (by_port @ by_port.conj().transpose(0, 2, 1)).reshape(dim, -1)
        d = q.diag_amplitudes
        joint = ((g * np.outer(d, d.conj()).ravel()) @ g.T).real
    else:
        joint = np.abs(out[0]) ** 2
    if scene.eta < 1.0:
        joint = binomial_thinning(binomial_thinning(joint, scene.eta, 0), scene.eta, 1)
    return OracleResult(joint, _moments_from_joint(joint))
