"""Exact symbolic algebra of multi-mode bosonic operator polynomials.

A polynomial is a map from normally-ordered ladder monomials to coefficients.
A monomial is a sorted tuple of ``(mode, p, q)`` triples meaning
``a_mode^dag^p a_mode^q`` with all creation factors to the left; the empty
tuple is the identity.  Coefficients are generic: Python complex, mpmath
``mpc`` for extended precision, or :class:`Jet` objects carrying first and
mixed second derivatives with respect to up to two phase parameters.

Normal ordering uses the per-mode identity

    a^q a^dag^p = sum_k k! C(q,k) C(p,k) a^dag^{p-k} a^{q-k},

which makes the canonical form unique: two polynomials are equal iff their
maps are equal.  :func:`contract` takes the expectation of a polynomial
through a linear mode map over a product of moment tables.
"""

from __future__ import annotations

from math import comb, factorial, prod

from .errors import DegreeBoundExceeded

DEFAULT_DEGREE_CAP = 16
_EXP_BITS = 16
_EXP_MASK = (1 << _EXP_BITS) - 1


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

    def __rsub__(self, other):
        return Jet.lift(other).__sub__(self)

    def __neg__(self):
        return Jet(-self.f, -self.d1, -self.d2, -self.d12)

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


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Expectation through a linear mode map
# ---------------------------------------------------------------------------


def _is_zero(x) -> bool:
    if isinstance(x, Jet):
        return _is_zero(x.f) and _is_zero(x.d1) and _is_zero(x.d2) and _is_zero(x.d12)
    try:
        return complex(x) == 0
    except TypeError:
        return False


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


def _accumulate(into: dict, key, c, largest: float) -> None:
    """Add ``c`` at ``key``, keeping the largest product summed there."""
    if key in into:
        old, old_largest = into[key]
        into[key] = (old + c, max(old_largest, largest))
    else:
        into[key] = (c, largest)
