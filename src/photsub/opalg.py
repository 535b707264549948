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
sum_n sum_k G(n, k) eta^n M(n, k), with phase and loss in the monomials M
alone: :class:`PortCoefficients` folds each row G once per family and
observable, exactly, with its summands' radii, and a point is the one point
sum (:meth:`PortMoments.expect`, :func:`photsub.moments.certified_sum`).  M's
powers of x, y and z add up to n, so eta^n M(n, k) is M(n, k) of eta x,
eta y and eta z: a point scales its entries by eta once, by the package's
one loss law (:func:`photsub.moments.thin`).  Ordinary moments follow by
Stirling numbers (:func:`normal_ordered`), and the phase derivatives the
figures of merit divide by are closed forms (:meth:`PortMoments.slope`,
:meth:`PortMoments.mixed`) whose phi-free terms the family forms once.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import comb, factorial

from .moments import (
    ONE, Bounded, MomentTable, Phases, certified_sum, fixed_from, fixed_mul, fixed_times,
    man_exp, thin,
)

_GUARD_BITS = 10  # kept over the working bits: ~1/1000 of its last unit per term

_ROWS = {}  # (single, weights, turn) -> the lam-free rows of an observable


def _rows(single: bool, weights: tuple, turn) -> list:
    """[((n, k), [(input key, m, m2, weight)])] of the observable sum w F(i, j)
    over ``weights``: its pairs (K, K') with a <= b and k = a + b, less those
    the selection rule zeroes, merged by (n, k) and then by (key, m, m2).  A
    pair weighs w times its binomials, doubled where a < b, times
    omega^(a-b) conj(omega)^(k mod 2) = conj(omega)^(2 ceil((b-a)/2)), a sign
    for the Gaussian unit omega = ``turn``."""
    if (single, weights, turn) not in _ROWS:
        if turn not in (1, -1, 1j, -1j):
            raise ValueError(f"unknown turn {turn!r}: want a Gaussian unit")
        sign, rows = round((turn.conjugate() ** 2).real), {}
        for (i, j), w in weights:
            n = i + j
            expansion = [(k, l, comb(i, k) * comb(j, l), (i - k if single else k) + l)
                         for k in range(i + 1) for l in range(j + 1)]
            for (k, l, ck, a), (k2, l2, ck2, b) in product(expansion, repeat=2):
                if a <= b and ((k + l - k2 - l2) % 2 == 0 if single else k - k2 == l - l2):
                    key = (k + l, k2 + l2) if single else (k, k2, l, l2)
                    row, term = rows.setdefault((n, a + b), {}), (key, n - k - l, n - k2 - l2)
                    weight = w * ck * ck2 * (1 + (a < b)) * sign ** ((b - a + 1) // 2)
                    row[term] = row.get(term, 0) + weight
        _ROWS[single, weights, turn] = [(nk, [(*term, w) for term, w in row.items() if w])
                                        for nk, row in sorted(rows.items()) if any(row.values())]
    return _ROWS[single, weights, turn]


def _exact_sum(summands):
    """sum w h over pairs of an integer w and a :func:`fixed_from` number h,
    exactly, at the least exponent: its radius is sum |w| r, so a row that
    cancels, to a 0 midpoint too, keeps its summands' radii; None where the
    sum is an exact 0, which adds no error."""
    terms = [(w, h) for w, h in summands if h[0] or h[1] or h[2]]
    low = min((h[3] for _, h in terms), default=0)
    re = im = err = 0
    for w, (x, y, r, e) in terms:
        re, im, err = (re + (w * x << e - low), im + (w * y << e - low),
                       err + (abs(w) * r << e - low))
    return (re, im, err, low) if re or im or err else None


class PortCoefficients:
    """The phi- and eta-free rows G of a scene family's port moments.

    The family is a lossless quantum input ``table``, whose arity (one mode
    or two) sets the scheme, and a coherent state of mean photons ``mu``,
    a float read exactly, and phase ``psi``, at ``bits`` working bits.
    The table keeps the selection rules of the subtracted squeezed vacua:
    <a^dag^p a^q> = 0 for odd p - q, <a1^dag^p a1^q a2^dag^r a2^s> = 0 unless
    p - q = r - s.
    """

    def __init__(self, table: MomentTable, mu, psi: float, bits: int):
        self.table, self.bits, self.single = table, bits + _GUARD_BITS, len(table.modes) == 1
        self._mu, self._phases = man_exp(mu), Phases(psi)
        self._moments, self._displacements, self._products, self._folds = {}, {}, {}, {}

    def moment(self, key: tuple) -> tuple:
        """The input table's entry ``key`` as a fixed-point number, kept per key."""
        if key not in self._moments:
            self._moments[key] = self.table.fixed(key, self.bits)
        return self._moments[key]

    def displacement(self, m: int, m2: int) -> tuple:
        """conj(alpha)^m alpha^m2 = mu^((m + m2)/2) e^{i psi (m2 - m)} as a
        fixed-point number, its radius the phase's times mu^((m + m2)/2):
        exact where m = m2 and it fits in the bits."""
        if (m, m2) not in self._displacements:
            (man, exp), k = self._mu, (m + m2) // 2
            phase = fixed_times(self._phases[m2 - m, self.bits + 2], man**k, -exp * k)
            self._displacements[m, m2] = fixed_from(*phase, self.bits)
        return self._displacements[m, m2]

    def fold(self, weights: tuple, turn=1j) -> list:
        """[(n, k, G(n, k))] of the observable sum w F(i, j) over ``weights``,
        sorted ((i, j), w) pairs, for the port entries' unit ``turn``: each G
        a :func:`_exact_sum` of displacement-entry products, each product
        formed once per family."""
        rows = self._folds.get((weights, turn))
        if rows is None:
            products, rows = self._products, []
            for (n, k), row in _rows(self.single, weights, turn):
                summands = []
                for key, m, m2, w in row:
                    if (key, m, m2) not in products:
                        products[key, m, m2] = fixed_mul(
                            self.displacement(m, m2), self.moment(key), self.bits)
                    summands.append((w, products[key, m, m2]))
                g = _exact_sum(summands)
                rows += [(n, k, g)] if g else []
            self._folds[weights, turn] = rows
        return rows

    @cached_property
    def gap(self):
        """<n> - mu of the single scheme, one exact difference, or None where
        it is an exact 0 (:func:`_exact_sum`): the phi-free part of
        :meth:`PortMoments.slope`."""
        return _exact_sum([(1, self.moment((1, 1))), (-1, self.displacement(1, 1))])

    @cached_property
    def mixed_terms(self) -> tuple:
        """The phi-free parts of :meth:`PortMoments.mixed`: the four terms of
        <(n0 - mu)(n1 - mu)>, <n0 n1>, mu^2, -mu <n0> and -mu <n1>, and
        conj(alpha)^2 <a0 a1>."""
        bits, minus_mu = self.bits, fixed_times(self.displacement(1, 1), -1)
        return ([self.moment((1, 1, 1, 1)), self.displacement(2, 2),
                 fixed_mul(minus_mu, self.moment((1, 1, 0, 0)), bits),
                 fixed_mul(minus_mu, self.moment((0, 0, 1, 1)), bits)],
                fixed_mul(self.displacement(2, 0), self.moment((0, 1, 0, 1)), bits))


class PortMoments:
    """Observables of one scene, and its phase derivatives, as certified sums:
    ``x`` = |u|^2, ``y`` = |v|^2 and ``z`` = conj(u) v = ``turn`` |uv| of its
    port entries u, v, fixed-point numbers at the family's bits, and ``eta``
    the detection efficiency.  The monomials read the entries times eta,
    truncated to the bits (:func:`fixed_from` adds it to the radius); the phase
    derivatives and ``x`` itself stay lossless."""

    def __init__(self, coefficients: PortCoefficients, x, y, z, eta: float = 1.0, turn=1j):
        self.coefficients, self.eta, self.turn = coefficients, eta, turn
        self.bits, self.x, self.y, self._z = coefficients.bits, x, y, z
        scale = thin(Bounded(1, 0, 0), eta, 1)  # eta = man 2^exp, exactly
        lossy = [fixed_from(*fixed_times(v, scale.man, -scale.exp), self.bits) for v in (x, y, z)]
        self._powers, self._lossy_z = ([ONE, lossy[0]], [ONE, lossy[1]]), lossy[2]
        self._monomials, self._values = {}, {}

    def _monomial(self, n: int, k: int) -> tuple:
        """eta^n M(n, k) = (eta x)^(k//2) (eta y)^(n - (k+1)//2) (eta z)^(k mod 2),
        kept per point."""
        m = self._monomials.get((n, k))
        if m is None:
            p, q = k // 2, n - (k + 1) // 2
            for powers, r in zip(self._powers, (p, q)):
                while len(powers) <= r:
                    powers.append(fixed_mul(powers[-1], powers[1], self.bits))
            x, y = self._powers[0][p], self._powers[1][q]
            m = fixed_mul(x, y, self.bits) if p and q else x if p else y
            m = self._monomials[n, k] = fixed_mul(m, self._lossy_z, self.bits) if k % 2 else m
        return m

    def expect(self, weights: tuple) -> Bounded:
        """sum w F(i, j) over ``weights``, sorted ((i, j), w) pairs, kept per point."""
        value = self._values.get(weights)
        if value is None:
            rows = self.coefficients.fold(weights, self.turn)
            value = self._values[weights] = certified_sum(
                [(g, self._monomial(n, k)) for n, k, g in rows], self.bits)
        return value

    def entry(self, i: int, j: int) -> Bounded:
        """F(i, j)."""
        return self.expect((((i, j), 1),))

    def slope(self) -> Bounded:
        """d(F(1, 0) - F(0, 1))/dphi = eta (<n> - mu) sin phi of the single scheme.

        The subtracted squeezed vacuum has definite photon-number parity, so
        <a> = 0 and F(1, 0) - F(0, 1) = -eta (<n> - mu) cos phi, with
        mu = |alpha|^2; sin phi = Re(-2i z).  <n> - mu is one exact difference
        (:attr:`PortCoefficients.gap`), so <n> = mu gives an exact 0 at every
        phase.
        """
        gap = self.coefficients.gap
        pairs = [(gap, fixed_times(self._z, -2j))] if gap else []
        return thin(certified_sum(pairs, self.bits), self.eta, 1)

    def mixed(self) -> Bounded:
        """d^2 F(1, 1)/dphi1 dphi2 of the correlated scheme at phi1 = phi2.

        Port A moves with phi1 and port B with phi2.  The pair populates only
        |n, n>, so <a0> = <a0^dag a1> = <n0 a1> = 0, which leaves
        eta^2 [xy <(n0 - mu)(n1 - mu)> - cos^2 phi Re(conj(alpha)^2 <a0 a1>)/2],
        with xy = |uv|^2 = sin^2(phi)/4 and cos^2 phi = 1 - 4 xy; the terms
        in the input moments are the family's (:attr:`PortCoefficients.mixed_terms`).
        """
        terms, pair = self.coefficients.mixed_terms
        w = fixed_mul(self.x, self.y, self.bits)
        pairs = [(w, term) for term in terms]
        pairs += [(fixed_times(w, 2), pair), (fixed_times(ONE, -1, 1), pair)]
        return thin(certified_sum(pairs, self.bits), self.eta, 2)


#: Stirling numbers of the second kind S(n, k), N^n = sum_k S(n, k) a^dag^k a^k,
#: by their explicit sum, for n up to 16, the largest input table order
_STIRLING2 = [
    [sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)
     for k in range(n + 1)]
    for n in range(17)
]

_WEIGHTS = {}  # sorted items of a polynomial in N_a, N_b -> its normal-ordered weights


def normal_ordered(poly: dict) -> tuple:
    """The sorted nonzero weights ((i, j), w) of F(i, j) in <poly(N_a, N_b)>,
    by Stirling numbers; ``poly`` maps (p, q) to the weight of N_a^p N_b^q."""
    key = tuple(sorted(poly.items()))
    if key not in _WEIGHTS:
        weights = {}
        for (p, q), c in key:
            for i, j in product(range(p + 1), range(q + 1)):
                weights[i, j] = weights.get((i, j), 0) + c * _STIRLING2[p][i] * _STIRLING2[q][j]
        _WEIGHTS[key] = tuple(sorted((ij, w) for ij, w in weights.items() if w))
    return _WEIGHTS[key]


def port_expectation(ports: PortMoments, poly: dict) -> Bounded:
    """<poly(N_a, N_b)> as a :class:`Bounded`: one folded observable."""
    return ports.expect(normal_ordered(poly))
