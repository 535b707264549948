"""Truncated Fock-space numerics.

Exact small-scale state construction (coherent, squeezed, two-mode squeezed),
photon subtraction, and a brute-force multimode interferometer oracle used to
validate the symbolic moment engine.

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

from dataclasses import dataclass
from math import comb, lgamma, log

import numpy as np
from scipy.special import gammaln

from .errors import CutoffTooSmall, MemoryBoundExceeded, ModeMismatch, NullState

TAIL_TOL = 1e-12
NULL_THRESHOLD = 1e-300
#: adaptive constructors keep this many slots of headroom above the tail
CUTOFF_MARGIN = 5
#: default bound on the number of amplitudes in a multimode oracle tensor
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

    def mean_photons(self) -> float:
        p = np.abs(self.amplitudes) ** 2
        return float(np.dot(np.arange(len(p)), p))


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


def _adaptive_cutoff(weights, cutoff):
    """Find the smallest cutoff with tail mass < TAIL_TOL, plus margin.

    ``weights(n)`` returns the |amplitude|^2 of level n for a state of unit
    norm.  If ``cutoff`` is given, the tail contract is checked against it.
    """
    total = 0.0
    n = 0
    limit = cutoff if cutoff is not None else 1_000_000
    while total < 1.0 - TAIL_TOL:
        if n > limit:
            if cutoff is not None:
                raise CutoffTooSmall(
                    f"cutoff={cutoff} leaves tail mass {1.0 - total:.3e} > {TAIL_TOL}"
                )
            raise CutoffTooSmall("tail contract not satisfiable below hard limit")
        total += weights(n)
        n += 1
    return (n - 1 + CUTOFF_MARGIN) if cutoff is None else cutoff


def coherent_state(alpha: complex, cutoff: int | None = None) -> FockState1:
    """Coherent state |alpha>, amplitudes e^{-|a|^2/2} a^n / sqrt(n!)."""
    mu = abs(alpha) ** 2

    def weight(n):
        # Poisson pmf, computed stably in log space
        if mu == 0.0:
            return 1.0 if n == 0 else 0.0
        return np.exp(n * log(mu) - mu - lgamma(n + 1))

    cut = _adaptive_cutoff(weight, cutoff)
    n = np.arange(cut + 1)
    amps = np.zeros(cut + 1, dtype=complex)
    if alpha == 0:
        amps[0] = 1.0
    else:
        phase = np.exp(1j * np.angle(alpha) * n)
        amps = np.exp(n * np.log(abs(alpha)) - mu / 2 - gammaln(n + 1) / 2) * phase
    return FockState1(amps).normalized()


def squeezed_vacuum(r: float, chi: float = 0.0, cutoff: int | None = None) -> FockState1:
    """Single-mode squeezed vacuum S(r e^{i chi})|0> with <N> = sinh^2 r."""
    if r < 0:
        raise ValueError("squeezing parameter r must be >= 0")
    t = np.tanh(r)

    def weight(n):
        if n % 2 == 1:
            return 0.0
        k = n // 2
        # |c_{2k}|^2 = t^{2k} (2k)! / (4^k k!^2 cosh r)
        if t == 0.0:
            return 1.0 if k == 0 else 0.0
        return np.exp(
            2 * k * log(t) + lgamma(2 * k + 1) - k * log(4) - 2 * lgamma(k + 1)
        ) / np.cosh(r)

    cut = _adaptive_cutoff(weight, cutoff)
    amps = np.zeros(cut + 1, dtype=complex)
    s = t * np.exp(1j * chi)
    c = 1.0 / np.sqrt(np.cosh(r)) + 0j
    amps[0] = c
    for k in range(1, cut // 2 + 1):
        # c_{2k} = c_{2k-2} * s * sqrt((2k)(2k-1)) / (2k)
        c = c * s * np.sqrt((2 * k) * (2 * k - 1)) / (2 * k)
        amps[2 * k] = c
    return FockState1(amps).normalized()


def two_mode_squeezed_vacuum(
    lam: float, chi: float = 0.0, cutoff: int | None = None
) -> TwoModeDiagonalState:
    """Two-mode squeezed vacuum with mean photons per mode lambda."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    x = lam / (1.0 + lam)

    def weight(n):
        return (1.0 - x) * x**n

    cut = _adaptive_cutoff(weight, cutoff)
    n = np.arange(cut + 1)
    # amplitude phase: (e^{i chi} tanh r)^n with tanh^2 r = x
    amps = np.sqrt(1.0 - x) * (np.sqrt(x) * np.exp(1j * chi)) ** n
    return TwoModeDiagonalState(amps).normalized()


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
        a = state.amplitudes
        if len(a) <= m:
            raise NullState(f"state has no support above |{m}>")
        n = np.arange(m, len(a))
        # a^m |n> = sqrt(n!/(n-m)!) |n-m>
        fac = np.exp(0.5 * (gammaln(n + 1) - gammaln(n - m + 1)))
        new = a[m:] * fac
        norm = float(np.linalg.norm(new))
        if norm < NULL_THRESHOLD:
            raise NullState("photon subtraction annihilated the state")
        return FockState1(new / norm), norm
    if isinstance(state, TwoModeDiagonalState):
        d = state.diag_amplitudes
        if len(d) <= m:
            raise NullState(f"state has no support above |{m},{m}>")
        n = np.arange(m, len(d))
        fac = np.exp(gammaln(n + 1) - gammaln(n - m + 1))
        new = d[m:] * fac
        norm = float(np.linalg.norm(new))
        if norm < NULL_THRESHOLD:
            raise NullState("photon subtraction annihilated the state")
        return TwoModeDiagonalState(new / norm), norm
    raise TypeError(f"unsupported state type {type(state)!r}")


# ---------------------------------------------------------------------------
# Brute-force interferometer oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiModeState:
    """Pure state over k modes as a complex amplitude tensor."""

    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _check_memory(shape, max_amplitudes):
    total = 1
    for s in shape:
        total *= s
    if total > max_amplitudes:
        raise MemoryBoundExceeded(
            f"tensor of {total} amplitudes exceeds bound {max_amplitudes}"
        )


def two_mode_unitary_matrix(u2: np.ndarray, c1: int, c2: int) -> np.ndarray:
    """Fock-space matrix of the passive 2x2 map a_out = u2 . a_in.

    Returns M with shape ((c1+1)(c2+1), (c1+1)(c2+1)); photon number beyond
    the cutoffs is silently truncated (callers must keep headroom).
    """
    d1, d2 = c1 + 1, c2 + 1
    mat = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    # U a1^dag U^dag = u2[0,0] a1^dag + u2[0,1]... derived from a_out = u2 a_in:
    # U a_k^dag U^dag = sum_i u2[i,k] a_i^dag
    A = (u2[0, 0], u2[1, 0])  # image of a1^dag
    B = (u2[0, 1], u2[1, 1])  # image of a2^dag
    lg = gammaln(np.arange(c1 + c2 + 2) + 1.0)
    dmax = max(d1, d2)
    # binomial-weighted power ladders, vectorized over the expansion indices
    with np.errstate(divide="ignore", invalid="ignore"):
        pow_a0 = _safe_powers(A[0], dmax)
        pow_a1 = _safe_powers(A[1], dmax)
        pow_b0 = _safe_powers(B[0], dmax)
        pow_b1 = _safe_powers(B[1], dmax)
    for m in range(d1):
        j = np.arange(m + 1)
        wa = np.exp(lg[m] - lg[j] - lg[m - j]) * pow_a0[j] * pow_a1[m - j]
        for n in range(d2):
            col = m * d2 + n
            k = np.arange(n + 1)
            wb = np.exp(lg[n] - lg[k] - lg[n - k]) * pow_b0[k] * pow_b1[n - k]
            # (A)^m (B)^n |0,0> / sqrt(m! n!)
            p1 = j[:, None] + k[None, :]
            p2 = m + n - p1
            coef = wa[:, None] * wb[None, :]
            coef = coef * np.exp(0.5 * (lg[p1] + lg[p2] - lg[m] - lg[n]))
            valid = (p1 < d1) & (p2 < d2)
            np.add.at(
                mat[:, col], (p1[valid] * d2 + p2[valid]).ravel(), coef[valid].ravel()
            )
    return mat


def _safe_powers(base: complex, count: int) -> np.ndarray:
    """[base^0 .. base^(count-1)] with the 0^0 = 1 convention."""
    out = np.ones(count, dtype=complex)
    for i in range(1, count):
        out[i] = out[i - 1] * base
    return out


def apply_two_mode_unitary(state: MultiModeState, i: int, j: int, u2: np.ndarray) -> MultiModeState:
    """Apply a passive 2x2 mode map to tensor axes i and j."""
    amps = state.amplitudes
    c1 = amps.shape[i] - 1
    c2 = amps.shape[j] - 1
    mat = two_mode_unitary_matrix(u2, c1, c2)
    moved = np.moveaxis(amps, (i, j), (-2, -1))
    lead = moved.shape[:-2]
    flat = moved.reshape(-1, (c1 + 1) * (c2 + 1))
    out = flat @ mat.T
    out = out.reshape(*lead, c1 + 1, c2 + 1)
    out = np.moveaxis(out, (-2, -1), (i, j))
    return MultiModeState(out)


def mzi_unitary(phi: float) -> np.ndarray:
    """Composite Mach-Zehnder map for ports (coherent, quantum)."""
    u = (np.exp(1j * phi) + 1.0) / 2.0
    v = (np.exp(1j * phi) - 1.0) / 2.0
    return np.array([[u, v], [v, u]])


def binomial_thinning(p: np.ndarray, eta: float, axis: int) -> np.ndarray:
    """Bernoulli-thin a photon-number distribution along one axis.

    Equivalent to a beamsplitter of transmission eta to a vacuum ancilla
    followed by marginalization over the ancilla outcome (valid because only
    photon-number observables are read out after the loss).
    """
    n = p.shape[axis]
    mat = np.zeros((n, n))
    for nn in range(n):
        for k in range(nn + 1):
            mat[k, nn] = comb(nn, k) * eta**k * (1.0 - eta) ** (nn - k)
    moved = np.moveaxis(p, axis, -1)
    out = moved @ mat.T
    return np.moveaxis(out, -1, axis)


@dataclass(frozen=True)
class OracleScene:
    """Full scene description for the brute-force interferometer oracle."""

    kind: str  # "single" or "correlated"
    quantum: object  # FockState1 (single) or TwoModeDiagonalState (correlated)
    mu: float
    psi: float
    phi1: float
    phi2: float = 0.0
    eta: float = 1.0
    loss: str = "thinning"  # "thinning" or "ancilla"
    coherent_cutoff: int | None = None
    max_amplitudes: int = MAX_AMPLITUDES


@dataclass(frozen=True)
class OracleResult:
    """Read-out statistics from the oracle."""

    joint: np.ndarray  # P(n_a, n_b) over the two read-out ports
    moments: dict  # (p, q) -> <N_a^p N_b^q>, p + q <= 4
    total_mean_photons: float  # over all ports, before loss


def _moments_from_joint(joint: np.ndarray, max_order: int = 4) -> dict:
    na = np.arange(joint.shape[0], dtype=float)
    nb = np.arange(joint.shape[1], dtype=float)
    out = {}
    for p in range(max_order + 1):
        for q in range(max_order + 1 - p):
            out[(p, q)] = float(na**p @ joint @ nb**q)
    return out


def oracle_interferometer(scene: OracleScene) -> OracleResult:
    """Evolve the full multimode state by direct summation and read out.

    Only feasible for small coherent energy (mu <~ 10); the memory bound is
    enforced before any tensor is allocated.
    """
    alpha = np.sqrt(scene.mu) * np.exp(1j * scene.psi)
    coh = coherent_state(alpha, scene.coherent_cutoff)
    if scene.kind == "single":
        return _oracle_single(scene, coh)
    if scene.kind == "correlated":
        return _oracle_correlated(scene, coh)
    raise ValueError(f"unknown scene kind {scene.kind!r}")


def _oracle_single(scene: OracleScene, coh: FockState1) -> OracleResult:
    q = scene.quantum
    if not isinstance(q, FockState1):
        raise ModeMismatch("single-MZI scene needs a FockState1 quantum input")
    # pad both modes to the joint photon capacity so the beamsplitter cannot
    # push amplitude past a cutoff
    dim = len(coh.amplitudes) + len(q.amplitudes) - 1
    shape = (dim, dim)
    _check_memory(shape, scene.max_amplitudes)
    ca = np.zeros(dim, dtype=complex)
    ca[: len(coh.amplitudes)] = coh.amplitudes
    qa = np.zeros(dim, dtype=complex)
    qa[: len(q.amplitudes)] = q.amplitudes
    amps = np.tensordot(ca, qa, axes=0)
    st = MultiModeState(amps)
    st = apply_two_mode_unitary(st, 0, 1, mzi_unitary(scene.phi1))
    total_mean = _tensor_total_mean(st.probabilities())
    if scene.eta < 1.0 and scene.loss == "ancilla":
        # trim negligible occupations before attaching the loss ancillas
        full = st.probabilities()
        keep = _axis_cutoffs(full, tail=1e-13)
        trimmed = st.amplitudes[: keep[0], : keep[1]]
        _check_memory((*trimmed.shape, keep[0], keep[1]), scene.max_amplitudes)
        bs = _loss_unitary(scene.eta)
        vac0 = np.zeros(keep[0], dtype=complex)
        vac0[0] = 1.0
        vac1 = np.zeros(keep[1], dtype=complex)
        vac1[0] = 1.0
        big = np.tensordot(np.tensordot(trimmed, vac0, axes=0), vac1, axes=0)
        st2 = MultiModeState(big)
        st2 = apply_two_mode_unitary(st2, 0, 2, bs)
        st2 = apply_two_mode_unitary(st2, 1, 3, bs)
        probs2 = st2.probabilities().sum(axis=(2, 3))
        joint = np.zeros_like(full)
        joint[: probs2.shape[0], : probs2.shape[1]] = probs2
    else:
        joint = st.probabilities()
        if scene.eta < 1.0:
            joint = binomial_thinning(joint, scene.eta, axis=0)
            joint = binomial_thinning(joint, scene.eta, axis=1)
    return OracleResult(joint, _moments_from_joint(joint), total_mean)


def _oracle_correlated(scene: OracleScene, coh: FockState1) -> OracleResult:
    q = scene.quantum
    if not isinstance(q, TwoModeDiagonalState):
        raise ModeMismatch("correlated scene needs a TwoModeDiagonalState quantum input")
    d = q.diag_amplitudes
    nc = len(coh.amplitudes)
    nq = len(d)
    dim = nc + nq - 1  # joint photon capacity of each MZI pair
    shape = (dim, dim, dim, dim)
    _check_memory(shape, scene.max_amplitudes)
    amps = np.zeros(shape, dtype=complex)
    ca = np.zeros(dim, dtype=complex)
    ca[:nc] = coh.amplitudes
    cc = np.tensordot(ca, ca, axes=0)
    for n in range(nq):
        amps[n, n, :, :] = d[n] * cc
    st = MultiModeState(amps)
    # MZI_k mixes coherent port (axis 2+k) with quantum port (axis k); the
    # read-out port keeps the tau-weighted quantum component, i.e. the
    # quantum-port axis after the map.
    st = apply_two_mode_unitary(st, 2, 0, mzi_unitary(scene.phi1))
    st = apply_two_mode_unitary(st, 3, 1, mzi_unitary(scene.phi2))
    probs = st.probabilities()
    total_mean = _tensor_total_mean(probs)
    joint = probs.sum(axis=(2, 3))
    if scene.eta < 1.0:
        if scene.loss == "ancilla":
            # explicit ancilla route: trim negligible occupations first so the
            # six-mode tensor stays within the amplitude budget
            bs = _loss_unitary(scene.eta)
            keep = _axis_cutoffs(probs, tail=1e-13)
            trimmed = st.amplitudes[
                : keep[0], : keep[1], : keep[2], : keep[3]
            ]
            anc0, anc1 = keep[0], keep[1]
            _check_memory((*trimmed.shape, anc0, anc1), scene.max_amplitudes)
            vac0 = np.zeros(anc0, dtype=complex)
            vac0[0] = 1.0
            vac1 = np.zeros(anc1, dtype=complex)
            vac1[0] = 1.0
            big = np.tensordot(np.tensordot(trimmed, vac0, axes=0), vac1, axes=0)
            st2 = MultiModeState(big)
            st2 = apply_two_mode_unitary(st2, 0, 4, bs)
            st2 = apply_two_mode_unitary(st2, 1, 5, bs)
            probs2 = st2.probabilities().sum(axis=(2, 3, 4, 5))
            joint = np.zeros_like(joint)
            joint[: probs2.shape[0], : probs2.shape[1]] = probs2
        else:
            joint = binomial_thinning(joint, scene.eta, axis=0)
            joint = binomial_thinning(joint, scene.eta, axis=1)
    return OracleResult(joint, _moments_from_joint(joint), total_mean)


def _loss_unitary(eta: float) -> np.ndarray:
    t = np.sqrt(eta)
    r = np.sqrt(1.0 - eta)
    return np.array([[t, r], [-r, t]])


def _axis_cutoffs(probs: np.ndarray, tail: float) -> list:
    """Per-axis dimensions holding all but ``tail`` of the probability mass."""
    keep = []
    for ax in range(probs.ndim):
        marg = probs.sum(axis=tuple(k for k in range(probs.ndim) if k != ax))
        c = len(marg)
        dropped = 0.0
        while c > 1 and dropped + marg[c - 1] <= tail:
            dropped += marg[c - 1]
            c -= 1
        keep.append(c)
    return keep


def _tensor_total_mean(probs: np.ndarray) -> float:
    total = 0.0
    for ax in range(probs.ndim):
        marg = probs.sum(axis=tuple(k for k in range(probs.ndim) if k != ax))
        total += float(np.dot(np.arange(len(marg)), marg))
    return total
