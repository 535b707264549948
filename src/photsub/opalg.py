"""Normal-ordered moments of the two read-out ports, with phase jets.

Every figure of merit reads the photon counts N_a = A^dag A and
N_b = B^dag B of two read-out ports.  Each port is one quantum mode plus a
displacement,

    X = sum_t c_t a_t + delta,

over the annihilators a_t of the quantum input: the coherent input is an
eigenstate of its annihilator, so it enters through delta alone.  The
ports commute as modes of the whole interferometer, so

    F(i, j) = <A^dag^i A^i B^dag^j B^j> = <A^dag^i B^dag^j A^i B^j>

is normally ordered in the input modes.  Writing A^i B^j = sum_k d_k a^k,
with a^k a monomial of input annihilators, gives the short sum

    F(i, j) = sum_{k, l} conj(d_k) d_l <a^dag^k a^l>

over entries of the input's moment table (:func:`port_moments`).  Every
figure of merit is then algebra on F: an ordinary moment is
<N_a^p N_b^q> = sum_{i, j} S(p, i) S(q, j) F(i, j), with S the Stirling
numbers of the second kind (:func:`port_expectation`).

Coefficients are generic: mpmath numbers at the working precision, or
:class:`Jet` objects carrying first and mixed second derivatives with
respect to up to two phase parameters.  Each F carries, as a float, the
magnitude of the largest single product summed into it: the size its value
may have cancelled from, which a caller sets against the working precision.
"""

from __future__ import annotations

from operator import add

from .moments import MomentTable

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


# ---------------------------------------------------------------------------
# The port-moment kernel
# ---------------------------------------------------------------------------


class PortMoment:
    """A port moment ``value`` and the largest product ``scale`` summed into it.

    A scalar factor scales both, so :func:`photsub.moments.apply_loss` thins
    a table of them as it thins any moment table.
    """

    __slots__ = ("value", "scale")

    def __init__(self, value, scale: float):
        self.value = value
        self.scale = scale

    def __rmul__(self, factor):
        return PortMoment(factor * self.value, float(abs(factor)) * self.scale)


def port_moments(ports, table: MomentTable, order: int) -> MomentTable:
    """F(i, j) for i + j <= ``order``, as a table over the two ports.

    ``ports`` holds the images ``(coeffs, delta)`` of A and B, ``coeffs``
    mapping modes of the quantum input ``table`` to their coefficients.
    F(i, j) is the :class:`PortMoment` at key ``(i, i, j, j)``, filled on
    first request; a product whose table entry vanishes (the parity and
    pair-number selection rules of the subtracted states) is skipped.
    """
    zero = (0,) * len(table.modes)
    bases = []
    for coeffs, delta in ports:
        base = {
            tuple(int(m == t) for m in table.modes): (c, _abs_value(c))
            for t, c in coeffs.items()
        }
        if not _is_zero(delta):
            base[zero] = (delta, _abs_value(delta))
        bases.append(base)
    powers = {}

    def raised(x, n):
        """{exponents: (coefficient, largest product)} of port ``x`` to the n."""
        if (x, n) not in powers:
            powers[x, n] = {zero: (1, 1.0)} if n == 0 else _product(raised(x, n - 1), bases[x])
        return powers[x, n]

    def compute(key):
        i, _, j, _ = key
        expansion = _product(raised(0, i), raised(1, j))
        total, largest = 0, 0.0
        for k, (ck, mk) in expansion.items():
            for l, (cl, ml) in expansion.items():
                entry = table.entry(tuple(e for pair in zip(k, l) for e in pair))
                if not _is_zero(entry):
                    total = total + _conj(ck) * cl * entry
                    largest = max(largest, mk * ml * _abs_value(entry))
        return PortMoment(total, largest)

    return MomentTable((0, 1), 2 * order, compute)


def port_expectation(table: MomentTable, poly: dict) -> tuple:
    """(<poly(N_a, N_b)>, scale) from a :func:`port_moments` table.

    ``poly`` maps (p, q) to the weight of N_a^p N_b^q.  The weights of each
    F(i, j) are summed first; ``scale`` is the largest |weight| times the
    scale of its F.
    """
    weights = {}
    for (p, q), c in poly.items():
        for i in range(p + 1):
            for j in range(q + 1):
                key = (i, i, j, j)
                weights[key] = weights.get(key, 0) + c * _stirling2(p, i) * _stirling2(q, j)
    total, largest = 0, 0.0
    for key, w in weights.items():
        if w:
            f = table.entry(key)
            total = total + w * f.value
            largest = max(largest, abs(w) * f.scale)
    return total, largest


def _stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: N^n = sum_k S(n, k) a^dag^k a^k."""
    if k == n:
        return 1
    if not 0 < k < n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _product(x: dict, y: dict) -> dict:
    """Product of two expansions {exponents: (coefficient, largest product)}."""
    out = {}
    for kx, (cx, mx) in x.items():
        for ky, (cy, my) in y.items():
            _accumulate(out, tuple(map(add, kx, ky)), cx * cy, mx * my)
    return out


def _accumulate(into: dict, key, c, largest: float) -> None:
    """Add ``c`` at ``key``, keeping the largest product summed there."""
    if key in into:
        old, old_largest = into[key]
        into[key] = (old + c, max(old_largest, largest))
    else:
        into[key] = (c, largest)
