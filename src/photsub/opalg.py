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
maps are equal.
"""

from __future__ import annotations

from math import comb, factorial

from .errors import DegreeBoundExceeded, MomentOrderMissing, PrecisionInsufficient

DEFAULT_DEGREE_CAP = 16


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

    def __mul__(self, other):
        o = Jet.lift(other)
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

    def adjoint(self):
        out = OperatorPolynomial()
        for m, c in self.terms.items():
            key = tuple((mode, q, p) for mode, p, q in m)
            out._add_term(key, _conj(c))
        return out

    def drop_zero(self, tol: float = 0.0):
        """Remove exactly-zero (or, with tol, negligible) coefficients."""
        if tol:
            scale = max((_abs_value(c) for c in self.terms.values()), default=0.0)
            return OperatorPolynomial(
                {k: c for k, c in self.terms.items() if _abs_value(c) > tol * scale}
            )
        return OperatorPolynomial(
            {k: c for k, c in self.terms.items() if _abs_value(c) != 0.0}
        )

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        parts = [f"{c!r}*{m}" for m, c in sorted(self.terms.items())]
        return "OperatorPolynomial(" + " + ".join(parts[:8]) + (" ..." if len(parts) > 8 else "") + ")"


def _as_poly(x):
    if isinstance(x, OperatorPolynomial):
        return x
    return OperatorPolynomial.identity(x)


def multiply(a: OperatorPolynomial, b: OperatorPolynomial, degree_cap: int | None = None) -> OperatorPolynomial:
    """Normal-ordered product of two polynomials."""
    cap = DEFAULT_DEGREE_CAP if degree_cap is None else degree_cap
    max_deg = a.degree() + b.degree()
    if max_deg > cap:
        raise DegreeBoundExceeded(
            f"product degree {max_deg} exceeds cap {cap}; raise degree_cap explicitly"
        )
    out = OperatorPolynomial()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            c = c1 * c2
            for w, key in _mono_mul(m1, m2):
                out._add_term(key, c if w == 1 else w * c)
    return out


def power(a: OperatorPolynomial, n: int, degree_cap: int | None = None) -> OperatorPolynomial:
    out = OperatorPolynomial.identity(1)
    for _ in range(n):
        out = multiply(out, a, degree_cap)
    return out


# ---------------------------------------------------------------------------
# Linear mode substitution
# ---------------------------------------------------------------------------


class LinearModeMap:
    """Affine substitution a_j -> sum_k u[j][k] a_k + beta[j].

    ``images`` maps a source mode to ``(coeffs, beta)`` where ``coeffs`` is a
    dict target-mode -> coefficient.
    """

    def __init__(self, images: dict):
        self.images = {
            j: (dict(coeffs), beta) for j, (coeffs, beta) in images.items()
        }

    def image_poly(self, mode: int, dagger: bool) -> OperatorPolynomial:
        coeffs, beta = self.images[mode]
        out = OperatorPolynomial()
        for target, c in coeffs.items():
            cc = _conj(c) if dagger else c
            out._add_term(mono((target, 1, 0) if dagger else (target, 0, 1)), cc)
        if not _is_zero(beta):
            out._add_term((), _conj(beta) if dagger else beta)
        return out


def _is_zero(x) -> bool:
    if isinstance(x, Jet):
        return _is_zero(x.f) and _is_zero(x.d1) and _is_zero(x.d2) and _is_zero(x.d12)
    try:
        return complex(x) == 0
    except TypeError:
        return False


def substitute(poly: OperatorPolynomial, mode_map: LinearModeMap, degree_cap: int | None = None) -> OperatorPolynomial:
    """Apply a linear mode map to every monomial, re-expand and normal-order.

    Valid for canonical (commutation-preserving) maps: images of commuting
    factors commute, so the creation block may be multiplied in any order.
    """
    cap = DEFAULT_DEGREE_CAP if degree_cap is None else degree_cap
    out = OperatorPolynomial()
    image_pow = {}

    def img_pow(mode, dagger, n):
        key = (mode, dagger, n)
        if key not in image_pow:
            if mode not in mode_map.images:
                raise KeyError(f"map does not cover mode {mode}")
            base = mode_map.image_poly(mode, dagger)
            image_pow[key] = power(base, n, cap)
        return image_pow[key]

    for m, c in poly.terms.items():
        acc = OperatorPolynomial.identity(c)
        for mode, p, _ in m:
            if p:
                acc = multiply(acc, img_pow(mode, True, p), cap)
        for mode, _, q in m:
            if q:
                acc = multiply(acc, img_pow(mode, False, q), cap)
        for k, cc in acc.terms.items():
            out._add_term(k, cc)
    return out


def center(poly: OperatorPolynomial, mean) -> OperatorPolynomial:
    """Subtract mean * identity, so variances evaluate as <centered^2>."""
    out = poly.copy()
    out._add_term((), -1 * mean if not isinstance(mean, Jet) else -mean)
    return out


# ---------------------------------------------------------------------------
# Expectation against factorized subsystem moment tables
# ---------------------------------------------------------------------------


def expect(poly: OperatorPolynomial, tables, min_digits: int | None = None):
    """Expectation of ``poly`` over a product state described by moment tables.

    ``tables`` is an iterable of objects exposing ``modes`` (tuple of mode
    ids) and ``entry(key)`` where ``key`` concatenates (p, q) pairs in the
    table's mode order.  Every mode in ``poly`` must be covered by exactly
    one table.  With ``min_digits`` set, a cancellation estimate (largest
    partial term vs. result) guards the working precision.
    """
    owner = {}
    for t in tables:
        for mode in t.modes:
            owner[mode] = t
    total = 0
    max_term = 0.0
    for m, c in poly.terms.items():
        exps = {}
        for mode, p, q in m:
            if mode not in owner:
                raise KeyError(f"no moment table covers mode {mode}")
            exps.setdefault(owner[mode], {})[mode] = (p, q)
        value = c
        skip = False
        for t, per_mode in exps.items():
            key = tuple(x for mode in t.modes for x in per_mode.get(mode, (0, 0)))
            entry = t.entry(key)
            if _is_zero(entry):
                skip = True
                break
            value = value * entry
        if skip:
            continue
        total = value + total
        mag = _abs_value(value)
        if mag > max_term:
            max_term = mag
    if min_digits is not None and max_term > 0.0:
        import mpmath as mp

        result_mag = _abs_value(total)
        lost = mp.log10(max_term / result_mag) if result_mag > 0 else mp.inf
        if mp.mp.dps - lost < min_digits:
            raise PrecisionInsufficient(
                f"cancellation lost ~{float(lost):.1f} digits at dps={mp.mp.dps}; "
                f"fewer than {min_digits} remain"
            )
    return total
