"""Normal-ordered moments of the two read-out ports, in certified fixed point.

Every figure of merit reads the photon counts N_a = A^dag A, N_b = B^dag B
of two read-out ports, each one quantum mode plus a displacement: single
scheme A = v a + u alpha, B = u a + v alpha; correlated A = u a0 + v alpha,
B = u a1 + v alpha; u = (e^{i phi} + 1)/2, v = (e^{i phi} - 1)/2 and alpha
the coherent amplitude, an eigenvalue of its annihilator.  Expanding A^i B^j
turns F(i, j) = <A^dag^i A^i B^dag^j B^j> into a short sum over pairs of
port monomials,

    F(i, j) = sum_{K, K'} H(K, K') conj(u^a v^(n-a)) u^b v^(n-b),   n = i + j,

with a and b the powers of u in the terms K and K' of the expansion, and H
binomials times conj(alpha)^m alpha^m2 = mu^((m + m2)/2) e^{i psi (m2 - m)}
(m + m2 is even) times an entry of the quantum input's moment table, all in
integers.  H does not depend on phi: :class:`PortCoefficients` compiles it
once per scene family and :func:`port_moments` sums it at each phase.
Pair (K', K) is the conjugate of (K, K'), so a > b is folded onto a < b.
Ordinary moments follow by Stirling numbers (:func:`port_expectation`).

The phase derivatives the figures of merit divide by are closed forms in a
few input moments, by the inputs' selection rules: the single slope
eta (<n> - mu) sin phi (:meth:`PortMoments.slope`) and the correlated mixed
derivative d^2 F(1, 1)/dphi1 dphi2 (:meth:`PortMoments.mixed`).  Every sum
runs in block floating point with a certified error bound
(:func:`photsub.moments.certified_sum`), and detection loss thins each sum
F(i, j), a moment of 2(i + j) ladder operators, by eta^(i+j) through the
package's one loss law (:func:`photsub.moments.thin`).
"""

from __future__ import annotations

from math import comb, factorial

import mpmath as mp

from .moments import (
    ONE, Bounded, MomentTable, Phases, certified_sum, fixed, fixed_conj, fixed_from,
    fixed_mul, fixed_times, thin,
)

_GUARD_BITS = 10  # kept over the working bits: ~1/1000 of its last unit per term

_TEMPLATES = {}  # (single, i, j) -> the lam-free pairs of terms of F(i, j)


def _template(single: bool, i: int, j: int) -> list:
    """[(a, b, input key, m, m2, weight)] of the pairs (K, K') of F(i, j)
    with a <= b whose input entry the selection rule leaves nonzero; the
    weight is the binomials, doubled where a < b by the fold."""
    if (single, i, j) not in _TEMPLATES:
        n = i + j
        expansion = [(k, l, comb(i, k) * comb(j, l), (i - k if single else k) + l)
                     for k in range(i + 1) for l in range(j + 1)]
        _TEMPLATES[single, i, j] = [
            (a, b, (k + l, k2 + l2) if single else (k, k2, l, l2), n - k - l, n - k2 - l2,
             ck * ck2 * (1 + (a < b)))
            for k, l, ck, a in expansion for k2, l2, ck2, b in expansion
            if a <= b and ((k + l - k2 - l2) % 2 == 0 if single else k - k2 == l - l2)
        ]
    return _TEMPLATES[single, i, j]


class PortCoefficients:
    """The phi-independent coefficients H of a scene family's port moments.

    The family is a lossless quantum input ``table`` and a coherent state of
    mean photons ``mu``, read exactly if a float, and phase ``psi``; ``bits``
    is the working binary precision.  The table's arity sets the port
    layout: one mode is the single scheme, two the correlated one.  Its
    entries keep the selection rules of the subtracted squeezed vacua:
    <a^dag^p a^q> = 0 for odd p - q, <a1^dag^p a1^q a2^dag^r a2^s> = 0 unless
    p - q = r - s.  Each F(i, j) compiles on first request.
    """

    def __init__(self, table: MomentTable, mu, psi: float, bits: int):
        self.table, self.bits, self.single = table, bits + _GUARD_BITS, len(table.modes) == 1
        self._mu, self._phases = mp.mpf(mu).man_exp, Phases(psi)
        self._moments, self._displacements, self._terms = {}, {}, {}

    def moment(self, key: tuple) -> tuple:
        """The input table's entry ``key`` as a fixed-point number, kept per key."""
        if key not in self._moments:
            self._moments[key] = self.table.fixed(key, self.bits)
        return self._moments[key]

    def displacement(self, m: int, m2: int) -> tuple:
        """conj(alpha)^m alpha^m2 = mu^((m + m2)/2) e^{i psi (m2 - m)} as a
        fixed-point number, exact where m = m2 and it fits in the bits."""
        if (m, m2) not in self._displacements:
            (man, exp), k = self._mu, (m + m2) // 2
            c, s, e, ulps = self._phases[m2 - m, self.bits + 2]
            self._displacements[m, m2] = fixed_from(
                man**k * c, man**k * s, e + exp * k, self.bits, ulps)
        return self._displacements[m, m2]

    def terms(self, i: int, j: int) -> list:
        """[(a, b, H)] of F(i, j) for a <= b, with a and b the powers of u in
        the monomials of K and K'."""
        if (i, j) not in self._terms:
            self._terms[i, j] = []
            for a, b, key, m, m2, weight in _template(self.single, i, j):
                entry = self.moment(key)
                if entry[0] or entry[1]:  # lam = 0 zeroes more than the selection rule
                    h = fixed_mul(self.displacement(m, m2), entry, self.bits)
                    self._terms[i, j].append((a, b, fixed_times(h, weight)))
        return self._terms[i, j]


class PortMoments:
    """F(i, j) of one scene, and its phase derivatives, as certified sums.

    Built by :func:`port_moments`; entries are summed on first request.
    """

    def __init__(self, coefficients: PortCoefficients, u, v, eta: float):
        self.coefficients, self.eta, self.bits = coefficients, eta, coefficients.bits
        self._u, self._v = fixed(u, self.bits), fixed(v, self.bits)
        self._powers = [[ONE]]
        self._pairs = {}
        self._entries = {}

    def _monomials(self, n: int) -> list:
        """[u^a v^(n - a) for a = 0..n]."""
        while len(self._powers) <= n:
            low = self._powers[-1]
            self._powers.append(
                [fixed_mul(low[0], self._v, self.bits)]
                + [fixed_mul(x, self._u, self.bits) for x in low]
            )
        return self._powers[n]

    def _pair(self, n: int, a: int, b: int) -> tuple:
        """conj(u^a v^(n-a)) u^b v^(n-b)."""
        if (n, a, b) not in self._pairs:
            p = self._monomials(n)
            self._pairs[n, a, b] = fixed_mul(fixed_conj(p[a]), p[b], self.bits)
        return self._pairs[n, a, b]

    def _sum(self, pairs, n: int) -> Bounded:
        """The certified sum of ``pairs``, thinned by eta^n."""
        return thin(certified_sum(pairs, self.bits), self.eta, n)

    def entry(self, i: int, j: int) -> Bounded:
        """F(i, j)."""
        if (i, j) not in self._entries:
            n, terms = i + j, self.coefficients.terms(i, j)
            self._entries[i, j] = self._sum(((h, self._pair(n, a, b)) for a, b, h in terms), n)
        return self._entries[i, j]

    def slope(self) -> Bounded:
        """d(F(1, 0) - F(0, 1))/dphi = eta (<n> - mu) sin phi of the single scheme.

        The subtracted squeezed vacuum has definite photon-number parity, so
        <a> = 0 and F(1, 0) - F(0, 1) = -eta (<n> - mu) cos phi, with
        mu = |alpha|^2; sin phi = Re(-2i conj(u) v).
        """
        c = self.coefficients
        sin = fixed_times(self._pair(1, 1, 0), -2j)
        return self._sum([(c.moment((1, 1)), sin), (fixed_times(c.displacement(1, 1), -1), sin)], 1)

    def mixed(self) -> Bounded:
        """d^2 F(1, 1)/dphi1 dphi2 of the correlated scheme at phi1 = phi2.

        Port A moves with phi1 and port B with phi2.  The pair populates only
        |n, n>, so <a0> = <a0^dag a1> = <n0 a1> = 0, which leaves
        eta^2 [|uv|^2 <(n0 - mu)(n1 - mu)> - cos^2 phi Re(conj(alpha)^2 <a0 a1>)/2],
        with |uv|^2 = sin^2(phi)/4 and cos^2 phi = 1 - 4 |uv|^2.
        """
        c, bits, w = self.coefficients, self.bits, self._pair(2, 1, 1)
        minus_mu = fixed_times(c.displacement(1, 1), -1)
        y = fixed_mul(c.displacement(2, 0), c.moment((0, 1, 0, 1)), bits)
        pairs = [(w, c.moment((1, 1, 1, 1))), (w, c.displacement(2, 2)),
                 (w, fixed_mul(minus_mu, c.moment((1, 1, 0, 0)), bits)),
                 (w, fixed_mul(minus_mu, c.moment((0, 0, 1, 1)), bits)),
                 (fixed_times(w, 2), y), (fixed_times(ONE, -1, 1), y)]
        return self._sum(pairs, 2)


def port_moments(coefficients: PortCoefficients, u, v, eta: float = 1.0) -> PortMoments:
    """The port moments of one scene of a compiled family: ``u`` and ``v`` are
    its Mach-Zehnder entries at guard digits, ``eta`` the detection efficiency."""
    return PortMoments(coefficients, u, v, eta)


#: Stirling numbers of the second kind S(n, k), N^n = sum_k S(n, k) a^dag^k a^k,
#: by their explicit sum, for n up to 16, the largest input table order
_STIRLING2 = [
    [sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)
     for k in range(n + 1)]
    for n in range(17)
]


def port_expectation(ports: PortMoments, poly: dict) -> Bounded:
    """<poly(N_a, N_b)> as a :class:`Bounded`.

    ``poly`` maps (p, q) to the integer weight of N_a^p N_b^q.  The weights
    of each F(i, j) are summed first.
    """
    weights = {}
    for (p, q), c in poly.items():
        for i in range(p + 1):
            for j in range(q + 1):
                weights[i, j] = weights.get((i, j), 0) + c * _STIRLING2[p][i] * _STIRLING2[q][j]
    return sum(w * ports.entry(i, j) for (i, j), w in weights.items() if w)
