"""Reference implementations used only by the tests.

Production code reads every moment from the exact, lazily filled tables in
:mod:`photsub.moments`.  The float Fock-space routines here are independent
ways to the same numbers: moments by direct summation over a truncated
state, squeeze operators applied as matrix exponentials, overlaps and
fidelities, passive two-mode maps as dense plane matrices, the oracle's
lossless output as one amplitude tensor, and detection loss as beamsplitters
to vacuum ancillas.  The tests check the exact engine, the state
constructors, the oracle's block propagation, its stack of single-MZI planes
and its binomial thinning against them.  A whole moment table thinned entry
by entry (:func:`apply_loss`) is the reference for the loss law
:func:`photsub.moments.thin`.  The general normal-ordered
operator algebra at the end (:class:`OperatorPolynomial`, :func:`multiply`,
:func:`contract`), with :class:`Jet` phase derivatives, is the reference
the port-moment kernel of :mod:`photsub.opalg` and its analytic
derivatives are checked against.
"""

from math import comb, factorial, prod, sqrt

import mpmath as mp
import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln

from photsub import fock, moments
from photsub.errors import CutoffTooSmall, ModeMismatch, PhotsubError
from photsub.fock import CUTOFF_MARGIN, TAIL_TOL, FockState1, TwoModeDiagonalState


# ---------------------------------------------------------------------------
# Jets: truncated Taylor coefficients in up to two independent variables
# ---------------------------------------------------------------------------


class Jet:
    """Value plus d/dx1, d/dx2 and d^2/dx1 dx2 of an analytic expression.

    Multiplication implements the bilinear product rule, so any arithmetic
    expression built from jets carries its mixed second derivative exactly
    (no finite differencing).
    """

    __slots__ = ("f", "d1", "d2", "d12")

    def __init__(self, f, d1=0, d2=0, d12=0):
        self.f = f
        self.d1 = d1
        self.d2 = d2
        self.d12 = d12

    @staticmethod
    def lift(x):
        return x if isinstance(x, Jet) else Jet(x)

    def __add__(self, other):
        o = Jet.lift(other)
        return Jet(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2, self.d12 + o.d12)

    __radd__ = __add__

    def __sub__(self, other):
        o = Jet.lift(other)
        return Jet(self.f - o.f, self.d1 - o.d1, self.d2 - o.d2, self.d12 - o.d12)

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.f * o, self.d1 * o, self.d2 * o, self.d12 * o)
        return Jet(
            self.f * o.f,
            self.f * o.d1 + self.d1 * o.f,
            self.f * o.d2 + self.d2 * o.f,
            self.f * o.d12 + self.d12 * o.f + self.d1 * o.d2 + self.d2 * o.d1,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return Jet(
            _conj(self.f), _conj(self.d1), _conj(self.d2), _conj(self.d12)
        )

    def __repr__(self):
        return f"Jet({self.f}, d1={self.d1}, d2={self.d2}, d12={self.d12})"


def _conj(x):
    if isinstance(x, Jet):
        return x.conjugate()
    return x.conjugate() if hasattr(x, "conjugate") else complex(x).conjugate()


def _abs_value(x):
    """Magnitude of the value part, as a float (for cancellation tracking)."""
    if isinstance(x, Jet):
        x = x.f
    try:
        return abs(complex(x))
    except (TypeError, OverflowError):
        return float(abs(x))


def _is_zero(x) -> bool:
    if isinstance(x, Jet):
        return _is_zero(x.f) and _is_zero(x.d1) and _is_zero(x.d2) and _is_zero(x.d12)
    return not x


def _accumulate(into: dict, key, c, largest: float) -> None:
    """Add ``c`` at ``key``, keeping the largest product summed there."""
    if key in into:
        old, old_largest = into[key]
        into[key] = (old + c, max(old_largest, largest))
    else:
        into[key] = (c, largest)


def vacuum_table(modes) -> moments.MomentTable:
    """All moments vanish except the identity."""

    def compute(key):
        return 1.0 if not any(key) else 0.0

    return moments.MomentTable(modes, max_order=10**6, compute=compute)


def coherent_table(alpha, mode=0, max_order=10**6) -> moments.MomentTable:
    """Coherent-eigenstate moments: <a^dag^p a^q> = conj(alpha)^p alpha^q."""

    def compute(key):
        p, q = key
        return _conj(alpha) ** p * alpha**q

    return moments.MomentTable((mode,), max_order, compute=compute)


def apply_loss(table: moments.MomentTable, eta) -> moments.MomentTable:
    """Bernoulli thinning: each entry scaled by eta^{(sum of exponents)/2}.

    The reference thinning, entry by entry at the entry's precision, that
    the production law :func:`photsub.moments.thin` is checked against.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if eta == 1:
        return table

    factors = {0: 1}

    def compute(key):
        total = sum(key)
        if total not in factors:
            factors[total] = eta ** (total / 2)
        return factors[total] * table.entry(key)

    return moments.MomentTable(table.modes, table.max_order, compute=compute)


def bounded(x) -> moments.Bounded:
    """``x`` as a one-term certified sum at the working precision."""
    bits = mp.mp.prec
    return moments.certified_sum([(moments.ONE, moments.fixed(x, bits))], bits)


def legendre_p(m: int, x):
    """Legendre polynomial P_m(x) by the three-term recurrence (complex ok)."""
    if m < 0 or int(m) != m:
        raise ValueError("m must be a nonnegative integer")
    if m == 0:
        return 1.0 + 0 * x
    p_prev, p = 1.0 + 0 * x, x
    for k in range(1, m):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


def passv_norm_squared(lam: float, m: int) -> float:
    """<SSV| a^dag^m a^m |SSV> = m! (-i sqrt(lam))^m P_m(i sqrt(lam))."""
    val = factorial(m) * (-1j * sqrt(lam)) ** m * legendre_p(m, 1j * sqrt(lam))
    return float(val.real)


def spatsv_norm_squared(lam: float, m: int) -> float:
    """<TSV| (a1^dag a2^dag)^m (a1 a2)^m |TSV> = (m!)^2 lam^m P_m(2 lam + 1)."""
    return float(factorial(m) ** 2 * lam**m * legendre_p(m, 2.0 * lam + 1.0))


def mean_photons(state: FockState1) -> float:
    """Mean photon number of a single-mode Fock-basis state."""
    p = np.abs(state.amplitudes) ** 2
    return float(np.dot(np.arange(len(p)), p))


def mean_photons_per_mode(state: TwoModeDiagonalState) -> float:
    p = np.abs(state.diag_amplitudes) ** 2
    return float(np.dot(np.arange(len(p)), p))


def overlap(a, b) -> complex:
    """Inner product <a|b>, reconciling cutoffs by zero-padding."""
    if isinstance(a, FockState1) and isinstance(b, FockState1):
        va, vb = a.amplitudes, b.amplitudes
    elif isinstance(a, TwoModeDiagonalState) and isinstance(b, TwoModeDiagonalState):
        va, vb = a.diag_amplitudes, b.diag_amplitudes
    else:
        raise ModeMismatch(f"cannot overlap {type(a).__name__} with {type(b).__name__}")
    n = max(len(va), len(vb))
    pa = np.zeros(n, dtype=complex)
    pb = np.zeros(n, dtype=complex)
    pa[: len(va)] = va
    pb[: len(vb)] = vb
    return complex(np.vdot(pa, pb))


def fidelity(a, b) -> float:
    return abs(overlap(a, b)) ** 2


# ---------------------------------------------------------------------------
# Squeeze-operator application (for seed-representation equivalence checks)
# ---------------------------------------------------------------------------


def _evolve(gen, amplitudes, cutoff, name):
    """exp(gen) applied to the zero-padded amplitudes, with a tail check."""
    vec = np.zeros(cutoff + 1, dtype=complex)
    vec[: len(amplitudes)] = amplitudes
    out = expm_multiply(gen, vec)
    tail = np.sum(np.abs(out[-CUTOFF_MARGIN:]) ** 2)
    if tail > TAIL_TOL:
        raise CutoffTooSmall(f"{name} cutoff {cutoff} too small (tail {tail:.2e})")
    return out


def squeeze_apply(state: FockState1, r: float, chi: float = 0.0, cutoff: int | None = None) -> FockState1:
    """Apply S(r e^{i chi}) = exp((z a^dag^2 - z* a^2)/2), z = r e^{i chi}."""
    if cutoff is None:
        base = fock.squeezed_vacuum(r).cutoff
        cutoff = max(2 * (base + state.cutoff + 10), 4 * state.cutoff + 20)
    a = diags(np.sqrt(np.arange(1, cutoff + 1)), 1, format="csr", dtype=complex)
    adag = a.T.tocsr()
    z = r * np.exp(1j * chi)
    gen = 0.5 * (z * (adag @ adag) - np.conj(z) * (a @ a))
    out = _evolve(gen, state.amplitudes, cutoff, "squeeze_apply")
    return FockState1(out).normalized()


def two_mode_squeeze_apply(
    state: TwoModeDiagonalState, r: float, chi: float = 0.0, cutoff: int | None = None
) -> TwoModeDiagonalState:
    """Apply S_12 = exp(z a1^dag a2^dag - z* a1 a2) within the |n,n> subspace."""
    if cutoff is None:
        base = fock.two_mode_squeezed_vacuum(np.sinh(r) ** 2).cutoff
        cutoff = max(2 * (base + state.cutoff + 10), 4 * state.cutoff + 20)
    # On |n,n>: a1^dag a2^dag |n,n> = (n+1)|n+1,n+1>, a1 a2 |n,n> = n |n-1,n-1>
    n = np.arange(1, cutoff + 1)
    kplus = diags(n, -1, format="csr", dtype=complex)
    kminus = diags(n, 1, format="csr", dtype=complex)
    z = r * np.exp(1j * chi)
    gen = z * kplus - np.conj(z) * kminus
    out = _evolve(gen, state.diag_amplitudes, cutoff, "two_mode_squeeze_apply")
    return TwoModeDiagonalState(out).normalized()


# ---------------------------------------------------------------------------
# Moments by direct Fock summation (truncated states, float precision)
# ---------------------------------------------------------------------------


def table_from_state(state, max_order: int = 4, modes=None) -> moments.MomentTable:
    """Moments by direct Fock summation over a truncated state.

    The photon-number phase selection rule of |n,n>-supported states is
    enforced exactly (entries with p - q != r - s are identically zero).
    """
    if isinstance(state, FockState1):
        modes = (0,) if modes is None else tuple(modes)
        amps = state.amplitudes
        entries = {}
        for p in range(max_order + 1):
            for q in range(max_order + 1 - p):
                entries[(p, q)] = _single_mode_moment(amps, p, q)
        return moments.MomentTable(modes, max_order, compute=entries.__getitem__)
    if isinstance(state, TwoModeDiagonalState):
        modes = (0, 1) if modes is None else tuple(modes)
        d = state.diag_amplitudes
        entries = {}
        for p in range(max_order + 1):
            for q in range(max_order + 1 - p):
                for r in range(max_order + 1 - p - q):
                    for s in range(max_order + 1 - p - q - r):
                        if p - q != r - s:
                            entries[(p, q, r, s)] = 0.0
                        else:
                            entries[(p, q, r, s)] = _diag_two_mode_moment(d, p, q, r, s)
        return moments.MomentTable(modes, max_order, compute=entries.__getitem__)
    raise TypeError(f"unsupported state type {type(state)!r}")


def _ladder_factor(n, down, up):
    """sqrt(n!/(n-down)!) * sqrt((n-down+up)!/(n-down)!) for vector n."""
    n = np.asarray(n, dtype=float)
    return np.exp(
        0.5 * (gammaln(n + 1) - gammaln(n - down + 1))
        + 0.5 * (gammaln(n - down + up + 1) - gammaln(n - down + 1))
    )


def _single_mode_moment(amps, p, q):
    n = np.arange(q, len(amps))
    m = n - q + p
    keep = m < len(amps)
    n, m = n[keep], m[keep]
    if len(n) == 0:
        return 0.0
    fac = _ladder_factor(n, q, p)
    return complex(np.sum(np.conj(amps[m]) * amps[n] * fac))


def _diag_two_mode_moment(d, p, q, r, s):
    n = np.arange(max(q, s), len(d))
    m = n - q + p
    keep = m < len(d)
    n, m = n[keep], m[keep]
    if len(n) == 0:
        return 0.0
    fac = _ladder_factor(n, q, p) * _ladder_factor(n, s, r)
    return complex(np.sum(np.conj(d[m]) * d[n] * fac))


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


def apply_dense_two_mode_unitary(amps: np.ndarray, i: int, j: int, u2: np.ndarray) -> np.ndarray:
    """Apply u2 to tensor axes i and j through the dense plane matrix."""
    d1, d2 = amps.shape[i], amps.shape[j]
    mat = two_mode_unitary_matrix(u2, d1 - 1, d2 - 1)
    moved = np.moveaxis(amps, (i, j), (-2, -1))
    out = moved.reshape(-1, d1 * d2) @ mat.T
    return np.moveaxis(out.reshape(*moved.shape), (-2, -1), (i, j))


# ---------------------------------------------------------------------------
# The oracle's lossless output as one amplitude tensor, and detection loss by
# explicit vacuum ancillas (check the oracle's plane stack and its thinning)
# ---------------------------------------------------------------------------


def apply_on_axes(amps: np.ndarray, i: int, j: int, u2: np.ndarray) -> np.ndarray:
    """:func:`photsub.fock.apply_two_mode_unitary` on tensor axes i and j."""
    moved = np.moveaxis(amps, (i, j), (-2, -1))
    return np.moveaxis(fock.apply_two_mode_unitary(moved, u2), (-2, -1), (i, j))


def oracle_output(scene: fock.OracleScene) -> np.ndarray:
    """Lossless output amplitudes of the oracle scene; axes 0 and 1 are read out.

    Every mode is padded to the joint photon capacity of its MZI.  One MZI
    gives the (coherent, quantum) plane.  Twin MZIs give the 4-D tensor over
    (quantum 1, quantum 2, coherent 1, coherent 2), filled with
    sum_n d_n |n, n> beside two coherent states; MZI k mixes axes 2 + k and
    k, and its read-out port is the quantum axis.
    """
    coh = fock.coherent_state(np.sqrt(scene.mu) * np.exp(1j * scene.psi)).amplitudes
    q, u2 = scene.quantum, fock.mzi_unitary(scene.phi)
    if isinstance(q, FockState1):
        nc, nq = len(coh), len(q.amplitudes)
        fock._check_memory((nc + nq - 1,) * 2, scene.max_amplitudes)
        padded = np.pad(coh, (0, nq - 1)), np.pad(q.amplitudes, (0, nc - 1))
        return apply_on_axes(np.outer(*padded), 0, 1, u2)
    d, nc = q.diag_amplitudes, len(coh)
    shape = (nc + len(d) - 1,) * 4
    fock._check_memory(shape, scene.max_amplitudes)
    amps = np.zeros(shape, dtype=complex)
    ca = np.pad(coh, (0, len(d) - 1))
    for n in range(len(d)):
        amps[n, n] = d[n] * np.outer(ca, ca)
    return apply_on_axes(apply_on_axes(amps, 2, 0, u2), 3, 1, u2)


def readout_joint(amps: np.ndarray, eta: float) -> np.ndarray:
    """Joint counts of axes 0 and 1 of an output tensor, binomially thinned."""
    probs = np.abs(amps) ** 2
    joint = probs.sum(axis=tuple(range(2, probs.ndim)))
    if eta < 1.0:
        joint = fock.binomial_thinning(joint, eta, axis=0)
        joint = fock.binomial_thinning(joint, eta, axis=1)
    return joint


def loss_unitary(eta: float) -> np.ndarray:
    """Beamsplitter of transmission eta between a mode and its vacuum ancilla."""
    t = np.sqrt(eta)
    r = np.sqrt(1.0 - eta)
    return np.array([[t, r], [-r, t]])


def ancilla_joint(scene: fock.OracleScene) -> np.ndarray:
    """Read-out joint of the oracle scene, loss by beamsplitters to vacuum ancillas.

    Each read-out axis of :func:`oracle_output` meets its own vacuum ancilla
    at transmission ``scene.eta``; ancillas and idle ports are then summed
    out.  :func:`photsub.fock.oracle_interferometer` reaches the same joint
    by binomial thinning.
    """
    amps = oracle_output(scene)
    probs = np.abs(amps) ** 2
    # trim negligible occupations first so the tensor with its two ancilla
    # axes stays within the amplitude budget
    keep = _axis_cutoffs(probs, tail=1e-12)
    nd = len(keep)
    shape = (*keep, keep[0], keep[1])
    fock._check_memory(shape, scene.max_amplitudes)
    big = np.zeros(shape, dtype=complex)
    big[..., 0, 0] = amps[tuple(slice(c) for c in keep)]
    bs = loss_unitary(scene.eta)
    big = apply_on_axes(apply_on_axes(big, 0, nd, bs), 1, nd + 1, bs)
    probs2 = (np.abs(big) ** 2).sum(axis=tuple(range(2, nd + 2)))
    joint = np.zeros(probs.shape[:2])
    joint[: probs2.shape[0], : probs2.shape[1]] = probs2
    return joint


def _axis_cutoffs(probs: np.ndarray, tail: float) -> list:
    """Per-axis dimensions that drop at most ``tail`` of each marginal's mass.

    Read-out axes 0 and 1 carry moments up to fourth order, so there the
    trim is judged by the share of <(N+1)^4> it removes.
    """
    keep = []
    for ax in range(probs.ndim):
        marg = probs.sum(axis=tuple(k for k in range(probs.ndim) if k != ax))
        if ax < 2:
            marg = marg * (1.0 + np.arange(len(marg))) ** 4
        beyond = np.cumsum(marg[::-1])[::-1]  # beyond[c]: weight of levels >= c
        keep.append(max(1, int(np.count_nonzero(beyond > tail * beyond[0]))))
    return keep


# ---------------------------------------------------------------------------
# General normal-ordered operator algebra: the reference for the port-moment
# kernel of photsub.opalg (a polynomial of ladder monomials, its products,
# and its expectation through a linear mode map over moment tables)
# ---------------------------------------------------------------------------


class DegreeBoundExceeded(PhotsubError):
    """An operator product exceeded the total-degree cap."""


DEFAULT_DEGREE_CAP = 16
_EXP_BITS = 16
_EXP_MASK = (1 << _EXP_BITS) - 1


def mono(*triples) -> tuple:
    """Build a canonical monomial from (mode, p, q) triples."""
    items = [(int(m), int(p), int(q)) for m, p, q in triples if p or q]
    items.sort()
    modes = [m for m, _, _ in items]
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate mode in monomial")
    return tuple(items)


def mono_degree(monomial) -> int:
    return sum(p + q for _, p, q in monomial)


def _mono_mul(m1, m2):
    """Product of two normal-ordered monomials as [(int weight, monomial)]."""
    per_mode = {}
    for m, p, q in m1:
        per_mode[m] = [p, q, 0, 0]
    for m, p, q in m2:
        if m in per_mode:
            per_mode[m][2] = p
            per_mode[m][3] = q
        else:
            per_mode[m] = [0, 0, p, q]
    terms = [(1, [])]
    for m in sorted(per_mode):
        p1, q1, p2, q2 = per_mode[m]
        options = []
        for k in range(min(q1, p2) + 1):
            w = comb(q1, k) * comb(p2, k) * factorial(k)
            p, q = p1 + p2 - k, q1 + q2 - k
            options.append((w, (m, p, q) if (p or q) else None))
        new_terms = []
        for w0, acc in terms:
            for w, triple in options:
                entry = acc if triple is None else acc + [triple]
                new_terms.append((w0 * w, entry))
        terms = new_terms
    return [(w, tuple(acc)) for w, acc in terms]


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class OperatorPolynomial:
    """Complex-weighted sum of normally-ordered ladder monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def identity(coeff=1):
        return OperatorPolynomial({(): coeff})

    @staticmethod
    def ladder(mode: int, dagger: bool = False, coeff=1):
        key = mono((mode, 1, 0)) if dagger else mono((mode, 0, 1))
        return OperatorPolynomial({key: coeff})

    @staticmethod
    def number(mode: int, coeff=1):
        return OperatorPolynomial({mono((mode, 1, 1)): coeff})

    def copy(self):
        return OperatorPolynomial(self.terms)

    def degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def modes(self) -> set:
        out = set()
        for m in self.terms:
            out.update(mode for mode, _, _ in m)
        return out

    def _add_term(self, key, coeff):
        if key in self.terms:
            self.terms[key] = self.terms[key] + coeff
        else:
            self.terms[key] = coeff

    def __add__(self, other):
        out = self.copy()
        for k, c in _as_poly(other).terms.items():
            out._add_term(k, c)
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (_as_poly(other) * -1)

    def __rsub__(self, other):
        return _as_poly(other) + (self * -1)

    def __neg__(self):
        return self * -1

    def scaled(self, factor):
        return OperatorPolynomial({k: factor * c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, OperatorPolynomial):
            return multiply(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        if isinstance(other, OperatorPolynomial):
            return multiply(other, self)
        return self.scaled(other)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        parts = [f"{c!r}*{m}" for m, c in sorted(self.terms.items())]
        return "OperatorPolynomial(" + " + ".join(parts[:8]) + (" ..." if len(parts) > 8 else "") + ")"


def _as_poly(x):
    if isinstance(x, OperatorPolynomial):
        return x
    return OperatorPolynomial.identity(x)


def multiply(a: OperatorPolynomial, b: OperatorPolynomial) -> OperatorPolynomial:
    """Normal-ordered product of two polynomials, of degree at most DEFAULT_DEGREE_CAP."""
    max_deg = a.degree() + b.degree()
    if max_deg > DEFAULT_DEGREE_CAP:
        raise DegreeBoundExceeded(
            f"product degree {max_deg} exceeds cap {DEFAULT_DEGREE_CAP}"
        )
    out = OperatorPolynomial()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            c = c1 * c2
            for w, key in _mono_mul(m1, m2):
                out._add_term(key, c if w == 1 else w * c)
    return out


def power(a: OperatorPolynomial, n: int) -> OperatorPolynomial:
    out = OperatorPolynomial.identity(1)
    for _ in range(n):
        out = multiply(out, a)
    return out



def contract(poly: OperatorPolynomial, images: dict, tables) -> tuple:
    """(expectation, scale) of ``poly`` after a_j -> sum_t c_jt a_t + beta_j.

    ``images`` maps each mode of ``poly`` to ``(coeffs, beta)``, with
    ``coeffs`` a dict target mode -> c_jt.  ``tables`` describe a product
    state: each exposes ``modes`` (tuple of mode ids, together covering every
    target mode once) and ``entry(key)``, ``key`` concatenating (p, q) pairs
    in the table's mode order.  The map must preserve commutators.

    An a^dag image holds only creation operators and scalars and an a image
    only annihilation operators and scalars, so the image of a
    normally-ordered monomial is normally ordered as it expands: each
    ``(image)^n`` is expanded once per call, its products go straight to
    moment keys, and a key whose moment vanishes is skipped before any
    coefficient arithmetic.

    ``scale`` is the magnitude of the largest single product (coefficient
    times moments, before products sharing a key are summed), as a float: the
    size the result may have cancelled from, which a caller sets against the
    working precision to count the digits lost.
    """
    tables = list(tables)
    slot = {}
    spans = []
    for t in tables:
        lo = 2 * len(slot)
        for mode in t.modes:
            slot[mode] = len(slot)
        spans.append((t, lo, 2 * len(slot)))
    # a key is the exponent vector (p, q per target mode) packed into one
    # int, _EXP_BITS bits per exponent, so that multiplying monomials is adding
    width = 2 * len(slot)
    powers = {}
    found = {}

    def expansion(mode, dagger, n):
        """[(exponents, coefficient, largest product)] of an image's n-th power."""
        if (mode, dagger, n) not in powers:
            coeffs, beta = images[mode]
            base = [(1 << _EXP_BITS * (2 * slot[t] + (not dagger)), c) for t, c in coeffs.items()]
            if not _is_zero(beta):
                base.append((0, beta))
            base = [(w, _conj(b) if dagger else b) for w, b in base]
            base = [(w, b, _abs_value(b)) for w, b in base]
            out = {0: (1, 1.0)}
            for _ in range(n):
                grown = {}
                for v, (a, ma) in out.items():
                    for w, b, mb in base:
                        _accumulate(grown, v + w, a * b, ma * mb)
                out = grown
            powers[mode, dagger, n] = [(v, a, ma) for v, (a, ma) in out.items()]
        return powers[mode, dagger, n]

    def moment(key):
        """(per-table moments, |their product|), or None when one vanishes."""
        if key not in found:
            exps = [key >> _EXP_BITS * i & _EXP_MASK for i in range(width)]
            # a table whose modes the key leaves alone contributes <1> = 1
            entries = [t.entry(tuple(exps[lo:hi])) for t, lo, hi in spans if any(exps[lo:hi])]
            vanishes = any(_is_zero(e) for e in entries)
            found[key] = None if vanishes else (entries, prod(map(_abs_value, entries)))
        return found[key]

    coeffs = {}
    largest = 0.0
    for m, c in poly.terms.items():
        blocks = [expansion(mode, True, p) for mode, p, _ in m if p]
        blocks += [expansion(mode, False, q) for mode, _, q in m if q]
        partial = {0: (c, _abs_value(c))}
        for n, block in enumerate(blocks, 1):
            grown = {}
            for v, (a, ma) in partial.items():
                for w, b, mb in block:
                    key = v + w
                    if n < len(blocks) or moment(key) is not None:
                        _accumulate(grown, key, a * b, ma * mb)
            partial = grown
        for key, (a, ma) in partial.items():
            hit = moment(key)
            if hit is not None:
                largest = max(largest, ma * hit[1])
                coeffs[key] = coeffs[key] + a if key in coeffs else a
    total = 0
    for key, c in coeffs.items():
        value = c
        for e in found[key][0]:
            value = value * e
        total = value + total
    return total, largest
