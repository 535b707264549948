"""Normal-ordered moments of the two read-out ports, in certified fixed point.

Every figure of merit reads the photon counts N_a = A^dag A, N_b = B^dag B
of two read-out ports, each one quantum mode plus a displacement: single
scheme A = v a + u alpha, B = u a + v alpha; correlated A = u a0 + v alpha,
B = u a1 + v alpha, with alpha the coherent amplitude.  F(i, j) =
<A^dag^i A^i B^dag^j B^j> sums H conj(u^a v^(n-a)) u^b v^(n-b), n = i + j,
over pairs (K, K') of terms of A^i B^j with a and b their powers of u; a > b
is folded onto its conjugate a < b.  H is binomials times
conj(alpha)^m alpha^m2 = mu^((m + m2)/2) e^{i psi (m2 - m)} times an entry
of the quantum input's moment table, in integers.  With x = |u|^2,
y = |v|^2 and z = conj(u) v = omega |uv|, where omega (the ``turn``) is i
for the Mach-Zehnder entries u, v = (e^{i phi} +- 1)/2 and 1 for the QFI's
u = v = 1/sqrt 2, a pair is omega^(a-b) x^(k/2) y^(n-k/2) for even
k = a + b and omega^(a-b) conj(omega) z x^((k-1)/2) y^((2n-k-1)/2) for odd k.
So an observable sum w F(i, j) under detection loss eta is
sum_n sum_k G(n, k) eta^n M(n, k): :class:`PortCoefficients` folds each row G
once per family and observable, exactly, with its summands' radii, from a
flat plan built once per process (:func:`_plan`) and the one block of
displacements per (mu, psi, bits), which every family there reads
(:data:`_displacements`).  M's powers of x, y and z add up to n, so
eta^n M(n, k) is M(n, k) of eta x, eta y and eta z: a
:class:`PortPoint` scales its entries by eta once (:func:`photsub.moments.thin`,
the one loss law) and keeps the monomials for every family read there, and
a point is one certified sum of the two (:meth:`PortMoments.expect`).
Ordinary moments follow by Stirling numbers (:func:`normal_ordered`), and
each phase derivative by a fixed integer map of the lam-free rows
(:func:`_rows`), folded and summed alike: the slope d/dphi of the merged
rows, and the correlated mixed derivative d^2/dphi1 dphi2 of rows kept per
port until the map has moved port A's k and then port B's.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache
from itertools import product
from math import comb, factorial

from .moments import (
    MEMO_SIZE, ONE, Bounded, MomentTable, Phases, certified_sum, fixed_from, fixed_mul,
    fixed_times, man_exp, thin,
)

_GUARD_BITS = 10  # kept over the working bits: ~1/1000 of its last unit per term

#: each derivative's factor on its folded rows, i/2 per phase slope: (k, halvings)
_FACTORS = {None: (1, 0), "slope": (1j, 1), "mixed": (-1, 2)}


def _sloped(rows: Counter, at: int) -> Counter:
    """``rows``, weights keyed by (port key, (input key, m, m2)), under d/dphi of
    the monomials M(n, k), (n, k) = port key[at:at + 2].  At turn i, dx = iz,
    dy = -iz, dz = i(x - y)/2 and z^2 = -xy send M(n, k) to i(k M(n, k-1) -
    (2n - k) M(n, k+1))/2 at even k and to minus that at odd k; this is the
    even-k map, its i/2 left to the fold (:data:`_FACTORS`)."""
    out = Counter()
    for (key, term), w in rows.items():
        n, k = key[at:at + 2]
        for k2, c in ((k - 1, k), (k + 1, k - 2 * n)):
            out[key[:at + 1] + (k2,) + key[at + 2:], term] += c * w
    return out


def _rows(single: bool, weights: tuple, turn, derivative=None) -> dict:
    """{(n, k): [(input key, m, m2, weight)]} of the observable sum w F(i, j)
    over ``weights``, or of its ``derivative`` at the Mach-Zehnder turn i:
    "slope", d/dphi, or "mixed", d^2/dphi1 dphi2 of the correlated ports A and
    B, at phi1 = phi2.  Its pairs (K, K') with a <= b and k = a + b, less those
    the selection rule zeroes, merged by (n, k) and then by (key, m, m2).  A
    pair weighs w times its binomials, doubled where a < b, times omega^(a-b)
    conj(omega)^(k mod 2) = conj(omega)^(2 ceil((b-a)/2)), a sign for the
    Gaussian unit omega = ``turn``.  A correlated pair is first keyed per port,
    (i, k_A, j, k_B), unsigned: its ports share conj(z)^d, d = (b - a)/2, and
    so d's parity, whose odd-k sign the mixed map (:func:`_sloped` on A, then
    on B) takes twice or not at all; the rows then merge to (n, k_A + k_B),
    times z^2 = conj(omega)^2 xy where both k are odd."""
    if turn not in (1, -1, 1j, -1j):
        raise ValueError(f"unknown turn {turn!r}: want a Gaussian unit")
    # a one-mode family has one phase; every phase map is the Mach-Zehnder one
    derivatives = [None] + (["slope"] + ["mixed"] * (not single)) * (turn == 1j)
    if derivative not in derivatives:
        raise ValueError(f"unknown derivative {derivative!r} of a {2 - single}-mode family"
                         f" at turn {turn!r}: want one of {derivatives}")
    sign, rows = round((turn.conjugate() ** 2).real), Counter()
    for (i, j), w in weights:
        n = i + j
        expansion = [(k, l, comb(i, k) * comb(j, l), (i - k if single else k) + l)
                     for k in range(i + 1) for l in range(j + 1)]
        for (k, l, ck, a), (k2, l2, ck2, b) in product(expansion, repeat=2):
            if a <= b and ((k + l - k2 - l2) % 2 == 0 if single else k - k2 == l - l2):
                key = (k + l, k2 + l2) if single else (k, k2, l, l2)
                ports = (n, a + b) if single else (i, k + k2, j, l + l2)
                weight = w * ck * ck2 * (1 + (a < b)) * sign ** ((b - a + 1) // 2 * single)
                rows[ports, (key, n - k - l, n - k2 - l2)] += weight
    if derivative == "mixed":
        rows = _sloped(_sloped(rows, 0), 2)
    if not single:
        merged = Counter()
        for ((i, k_a, j, k_b), term), w in rows.items():
            merged[(i + j, k_a + k_b), term] += sign ** (k_a * k_b % 2) * w
        rows = merged
    if derivative == "slope":
        rows = _sloped(rows, 0)
    table = {}
    for (nk, term), w in sorted(rows.items()):
        if w:
            table.setdefault(nk, []).append((*term, w))
    return table


class _Plan:
    """:func:`_rows` laid flat: ``products`` the (input key, m, m2) it reads,
    ``rows`` (n, k, indices into them, weights), ``factor`` the derivative's
    (:data:`_FACTORS`).  Its identity keys a family's folds and a point's sums."""

    __slots__ = ("products", "rows", "factor")

    def __init__(self, rows: dict, derivative):
        ids = {}
        self.rows = [(n, k, [ids.setdefault(t[:3], len(ids)) for t in row], [t[3] for t in row])
                     for (n, k), row in rows.items()]
        self.products = list(ids)
        self.factor = _FACTORS[derivative]


@cache
def _plan(single: bool, weights: tuple, turn, derivative) -> _Plan:
    """The fold plan of :func:`_rows`' rows, built once per process: ``derivative``
    has no default, as the cache keys an omitted argument apart from its value."""
    return _Plan(_rows(single, weights, turn, derivative), derivative)


def _exact_sum(summands):
    """sum w h over pairs of an integer w and a :func:`fixed_from` number h,
    exactly, at the least exponent, in one pass: its radius is sum |w| r, so a
    row that cancels, to a 0 midpoint too, keeps its summands' radii; None
    where the sum is an exact 0, which adds no error."""
    re, im, err, low = 0, 0, 0, None
    for w, (x, y, r, e) in summands:
        if x or y or r:
            if low is None or e < low:
                shift = 0 if low is None else low - e
                re, im, err, low = re << shift, im << shift, err << shift, e
            re, im, err = (re + (w * x << e - low), im + (w * y << e - low),
                           err + (abs(w) * r << e - low))
    return (re, im, err, low) if re or im or err else None


class _Displacements(dict):
    """(m, m2) -> conj(alpha)^m alpha^m2 = mu^((m + m2)/2) e^{i psi (m2 - m)} as a
    fixed-point number, its radius the phase's times mu^((m + m2)/2): exact where
    m = m2 and it fits in the ``bits``, formed on first read for every family and
    plan at mean photons ``mu``, an exact (man, exp) pair, and phase ``psi``."""

    def __init__(self, mu: tuple, psi: float, bits: int):
        self.mu, self.phases, self.bits = mu, Phases(psi), bits

    def __missing__(self, mm2: tuple) -> tuple:
        (man, exp), (m, m2) = self.mu, mm2
        k = (m + m2) // 2
        phase = fixed_times(self.phases[m2 - m, self.bits + 2], man**k, -exp * k)
        self[mm2] = shift = fixed_from(*phase, self.bits)
        return shift


#: the one displacement block per (mu, psi, bits), read by every family and plan there
_displacements = lru_cache(maxsize=MEMO_SIZE)(_Displacements)


class PortCoefficients:
    """The phi- and eta-free rows G of a scene family's port moments.

    The family is a lossless quantum input ``table``, whose arity (one mode
    or two) sets the scheme, and a coherent state of mean photons ``mu``,
    a float read exactly, and phase ``psi``, at ``bits`` working bits, whose
    displacements it reads from the block they key (:data:`_displacements`).
    The table keeps the selection rules of the subtracted squeezed vacua:
    <a^dag^p a^q> = 0 for odd p - q, <a1^dag^p a1^q a2^dag^r a2^s> = 0 unless
    p - q = r - s.
    """

    def __init__(self, table: MomentTable, mu, psi: float, bits: int):
        self.table, self.bits, self.single = table, bits + _GUARD_BITS, len(table.modes) == 1
        self.displacements = _displacements(man_exp(mu), psi, self.bits)
        self._moments, self._products, self._folds = {}, {}, {}

    def fold(self, plan: _Plan) -> list:
        """[(n, k, G(n, k))] of the observable, or its derivative, of ``plan``
        (:func:`_plan`), kept per plan: each G an :func:`_exact_sum` of
        displacement-entry products formed once per family, times the
        derivative's factor."""
        rows = self._folds.get(plan)
        if rows is None:
            bits, table, entries, shifts = self.bits, self.table, self._moments, self.displacements
            formed, products, rows = self._products, [], []
            for term in plan.products:
                h = formed.get(term)
                if h is None:
                    key, m, m2 = term
                    entry = entries.get(key) or entries.setdefault(key, table.fixed(key, bits))
                    h = formed[term] = fixed_mul(shifts[m, m2], entry, bits)
                products.append(h)
            for n, k, ids, ws in plan.rows:
                g = _exact_sum(zip(ws, map(products.__getitem__, ids)))
                if g:
                    rows.append((n, k, fixed_times(g, *plan.factor)))
            self._folds[plan] = rows
        return rows


class PortPoint(dict):
    """(n, k) -> eta^n M(n, k) = (eta x)^(k//2) (eta y)^(n - (k+1)//2) (eta z)^(k mod 2)
    at one working point, formed on first read for every family read there from
    ``lossy``: eta x, eta y and eta z, x = |u|^2, y = |v|^2 and z = conj(u) v = ``turn`` |uv|
    of the port entries, each scaled once by the efficiency eta and truncated to ``bits``."""

    def __init__(self, x, y, z, bits: int, eta: float = 1.0, turn=1j):
        self.bits, self.turn = bits, turn
        scale = thin(Bounded(1, 0, 0), eta)  # eta = man 2^exp, exactly
        self.lossy = [fixed_from(*fixed_times(v, scale.man, -scale.exp), bits) for v in (x, y, z)]
        self._powers = ([ONE, self.lossy[0]], [ONE, self.lossy[1]])

    def __missing__(self, nk: tuple) -> tuple:
        n, k = nk
        p, q = k // 2, n - (k + 1) // 2
        for powers, r in zip(self._powers, (p, q)):
            while len(powers) <= r:
                powers.append(fixed_mul(powers[-1], powers[1], self.bits))
        x, y = self._powers[0][p], self._powers[1][q]
        m = fixed_mul(x, y, self.bits) if p and q else x if p else y
        self[nk] = m = fixed_mul(m, self.lossy[2], self.bits) if k % 2 else m
        return m


class PortMoments:
    """A family's observables, and their phase derivatives, at one :class:`PortPoint`:
    certified sums of the family's rows against the point's monomials, kept per plan."""

    def __init__(self, coefficients: PortCoefficients, point: PortPoint):
        self.coefficients, self.point, self.bits = coefficients, point, coefficients.bits
        self._values = {}

    def expect(self, weights: tuple, derivative=None) -> Bounded:
        """sum w F(i, j) over ``weights``, sorted ((i, j), w) pairs, or its
        ``derivative`` (:func:`_rows`)."""
        plan = _plan(self.coefficients.single, weights, self.point.turn, derivative)
        value = self._values.get(plan)
        if value is None:
            point = self.point
            value = self._values[plan] = certified_sum(
                [(g, point[n, k]) for n, k, g in self.coefficients.fold(plan)], self.bits)
        return value

    def entry(self, i: int, j: int) -> Bounded:
        """F(i, j)."""
        return self.expect((((i, j), 1),))


#: Stirling numbers of the second kind S(n, k), N^n = sum_k S(n, k) a^dag^k a^k,
#: by their explicit sum, for n up to 16, the largest input table order
_STIRLING2 = [
    [sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)
     for k in range(n + 1)]
    for n in range(17)
]


def normal_ordered(poly: dict) -> tuple:
    """The sorted nonzero weights ((i, j), w) of F(i, j) in <poly(N_a, N_b)>,
    by Stirling numbers; ``poly`` maps (p, q) to the weight of N_a^p N_b^q."""
    weights = {}
    for (p, q), c in poly.items():
        for i, j in product(range(p + 1), range(q + 1)):
            weights[i, j] = weights.get((i, j), 0) + c * _STIRLING2[p][i] * _STIRLING2[q][j]
    return tuple(sorted((ij, w) for ij, w in weights.items() if w))
