"""Exact truncated p-adic coefficient arithmetic.

Scalars are "p-adic floats": a valuation together with a unit mantissa known
modulo a power of p.  All arithmetic propagates absolute precision so that a
result is never claimed beyond what the inputs support.  Coefficients may live
in an unramified extension of Q_p of degree a, represented as polynomials in a
fixed generator modulo a user-supplied irreducible polynomial.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .errors import MismatchedParams, NonInvertible


# Deterministic Miller-Rabin: these bases decide every n below
# 3317044064679887385961981 (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large for a deterministic "
                         "primality test")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RingParams(namedtuple(
        "RingParams", "p N t_window a modulus")):
    """Parameters of a truncated coefficient-and-series ring.

    p, a determine q = p^a; N is the working coefficient precision (mod p^N);
    t_window = (M_neg, M_pos) bounds series exponents to [-M_neg, M_pos];
    modulus is monic of degree a and irreducible mod p.  Immutable,
    hashable and equal by value.
    """

    __slots__ = ()

    def __new__(cls, p: int, N: int, t_window: tuple[int, int] = (0, 32),
                a: int = 1, modulus: tuple[int, ...] | None = None):
        m_neg, m_pos = t_window
        for name, x in (("p", p), ("N", N), ("t_window[0]", m_neg),
                        ("t_window[1]", m_pos), ("a", a)):
            if type(x) is not int:
                raise TypeError(f"{name} = {x!r} is not an integer")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if N < 1:
            raise ValueError("coefficient precision N must be >= 1")
        if m_neg < 0 or m_pos < 1:
            raise ValueError("t_window must satisfy M_neg >= 0, M_pos >= 1")
        if a < 1:
            raise ValueError("residue degree a must be >= 1")
        if a > 1:
            if modulus is None or len(modulus) != a + 1:
                raise ValueError("a > 1 needs a monic modulus of degree a")
            if any(type(c) is not int for c in modulus):
                raise TypeError(f"modulus {list(modulus)} has a non-integer "
                                "entry")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if not _irreducible_mod_p(modulus, p):
                raise ValueError(f"modulus {list(modulus)} is reducible "
                                 f"mod p = {p}")
        if a == 1 and modulus is not None:
            raise ValueError("modulus only makes sense for a > 1")
        return super().__new__(cls, p, N, t_window, a, modulus)

    def _replace(self, **changes):
        """A copy with fields changed, checked as the constructor checks."""
        return RingParams(*super()._replace(**changes))

    @property
    def q(self) -> int:
        return self.p ** self.a

    @property
    def window_lo(self) -> int:
        return -self.t_window[0]

    @property
    def window_hi(self) -> int:
        return self.t_window[1]


# ---------------------------------------------------------------------------
# polynomial helpers for the unramified extension (coefficients mod p^k)

def _poly_mul(u, v, modulus, pk):
    a = len(modulus) - 1
    out = [0] * (len(u) + len(v) - 1)
    for i, ci in enumerate(u):
        if ci:
            for j, cj in enumerate(v):
                out[i + j] = (out[i + j] + ci * cj) % pk
    # reduce modulo the monic modulus
    for i in range(len(out) - 1, a - 1, -1):
        c = out[i]
        if c:
            for j in range(a + 1):
                out[i - a + j] = (out[i - a + j] - c * modulus[j]) % pk
    return tuple(c % pk for c in out[:a]) + (0,) * max(0, a - len(out))


def _poly_pow(u, e, modulus, pk):
    out = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            out = _poly_mul(out, u, modulus, pk)
        u = _poly_mul(u, u, modulus, pk)
        e >>= 1
    return out


def _fp_divmod(f, g, p):
    """Quotient and remainder of polynomials over F_p, g non-zero mod p."""
    f = [c % p for c in f]
    g = [c % p for c in g]
    while g[-1] == 0:
        g.pop()
    q = [0] * max(1, len(f) - len(g) + 1)
    inv = pow(g[-1], -1, p)
    for d in range(len(f) - len(g), -1, -1):
        q[d] = c = f[d + len(g) - 1] * inv % p
        for i, gi in enumerate(g):
            f[i + d] = (f[i + d] - c * gi) % p
    f = f[:len(g) - 1]
    while f and f[-1] == 0:
        f.pop()
    return q, f or [0]


def _fp_euclid(f, u, p):
    """Extended Euclid over F_p for a monic f: (r, s) with r a gcd of f and
    u (reduced mod p, possibly with zero high coefficients) and s u = r
    mod f."""
    a = len(f) - 1
    r0, r1 = [c % p for c in f], [c % p for c in u]
    s0, s1 = (0,) * a, (1,) + (0,) * (a - 1)
    while any(r1):
        q, r = _fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, tuple((x - y) % p
                           for x, y in zip(s0, _poly_mul(q, s1, f, p)))
    return r0, s0


def _irreducible_mod_p(f, p) -> bool:
    """Rabin's test for a monic f of degree a >= 2: x^(p^a) = x mod f, and
    gcd(x^(p^(a/r)) - x, f) = 1 for each prime r dividing a."""
    a = len(f) - 1
    x = (0, 1) + (0,) * (a - 2)
    frob = [x]                  # frob[j] = x^(p^j) mod (f, p)
    for _ in range(a):
        frob.append(_poly_pow(frob[-1], p, f, p))
    if frob[a] != x:
        return False
    for r in range(2, a + 1):
        if a % r == 0 and _is_prime(r):
            gcd = _fp_euclid(f, [y - z for y, z in zip(frob[a // r], x)],
                             p)[0]
            if any(gcd[1:]):
                return False
    return True


def _poly_inv(u, modulus, p, k):
    """Invert u in (Z/p^k)[x]/(modulus); u must be a unit mod p."""
    # invert mod p by extended Euclid over F_p
    r0, s0 = _fp_euclid(modulus, u, p)
    lead = next(c for c in reversed(r0) if c % p)
    inv_lead = pow(lead, -1, p)
    z = tuple((c * inv_lead) % p for c in s0)
    if not any(z):
        raise NonInvertible("element not invertible mod p")
    # Hensel lift: z <- z(2 - u z) doubling the precision each step
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        pk = p ** prec
        uz = _poly_mul(u, z, modulus, pk)
        two_minus = tuple((-c) % pk for c in uz)
        two_minus = (two_minus[0] + 2,) + two_minus[1:]
        two_minus = tuple(c % pk for c in two_minus)
        z = _poly_mul(z, two_minus, modulus, pk)
    return z


def _poly_eval(coeffs, y, modulus, pk):
    """Horner evaluation of an integer polynomial at the extension element y."""
    a = len(modulus) - 1
    acc = (0,) * a
    for c in reversed(coeffs):
        acc = _poly_mul(acc, y, modulus, pk)
        acc = ((acc[0] + c) % pk,) + acc[1:]
    return acc


def _frobenius_generator_image(params: RingParams) -> tuple[int, ...]:
    """Witt Frobenius image of the generator x: the root of the modulus
    congruent to x^p mod p, lifted by Newton iteration to precision N."""
    p, k, f = params.p, params.N, params.modulus
    a = params.a
    x = (0, 1) + (0,) * (a - 2)
    y = _poly_pow(x, p, f, p)
    df = [i * f[i] for i in range(1, len(f))]
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        ppr = p ** prec
        fy = _poly_eval(f, y, f, ppr)
        dfy = _poly_eval(df, y, f, ppr)
        corr = _poly_mul(fy, _poly_inv(dfy, f, p, prec), f, ppr)
        y = tuple((yi - ci) % ppr for yi, ci in zip(y, corr))
    return y


_FROB_CACHE: dict = {}


def _padic_val(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicNumber:
    """Element of K (or its unramified extension) at tracked precision.

    Nonzero: value = p^v * unit, with the unit mantissa known modulo
    p^(abs_prec - v): an int for a = 1, a coefficient tuple for a > 1.
    Zero-at-precision: only the bound |x| <= p^-abs_prec is known.
    Instances are immutable.
    """

    __slots__ = ("params", "v", "unit", "abs_prec", "is_zero_at_precision")

    def __init__(self, params: RingParams, v, unit, abs_prec: int,
                 is_zero: bool = False):
        # the slot descriptors, since __setattr__ refuses every write
        _SET_PARAMS(self, params)
        _SET_ABS_PREC(self, abs_prec)
        _SET_ZERO(self, is_zero)
        if is_zero:
            v = unit = None
        _SET_V(self, v)
        _SET_UNIT(self, unit)

    def __setattr__(self, *a):
        raise AttributeError("PadicNumber is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, params: RingParams, abs_prec: int | None = None):
        return cls(params, None, None,
                   params.N if abs_prec is None else abs_prec, is_zero=True)

    @classmethod
    def from_rational(cls, params: RingParams, value):
        if type(value) is int:
            num, den = value, 1
        else:
            value = Fraction(value)
            num, den = value.numerator, value.denominator
        if num == 0:
            # an exact zero: known to arbitrary precision; cap generously
            return cls.zero(params, abs_prec=10 ** 9)
        p, N = params.p, params.N
        if den % p == 0:
            # num/den is reduced, so p does not divide num
            v = -_padic_val(den, p)
            den //= p ** -v
        else:
            v = _padic_val(num, p) if num % p == 0 else 0
            num //= p ** v
        pk = p ** N
        u = num % pk if den == 1 else (num * pow(den, -1, pk)) % pk
        if params.a > 1:
            u = (u,) + (0,) * (params.a - 1)
        return cls(params, v, u, v + N)

    @classmethod
    def from_poly(cls, params: RingParams, coeffs):
        """Element of the unramified extension from rational coordinates."""
        if params.a == 1:
            return cls.from_rational(params, coeffs[0])
        p, N = params.p, params.N
        fracs = [Fraction(c) for c in coeffs]
        if all(c == 0 for c in fracs):
            return cls.zero(params, abs_prec=10 ** 9)
        v = min(_padic_val(c.numerator, p) - _padic_val(c.denominator, p)
                for c in fracs if c != 0)
        pk = p ** N
        u = []
        for c in fracs:
            c = c / Fraction(p) ** v
            den = c.denominator
            u.append((c.numerator * pow(den, -1, pk)) % pk)
        u += [0] * (params.a - len(u))
        return cls(params, v, tuple(u), v + N)

    # -- basic queries ------------------------------------------------------

    @property
    def rel_prec(self):
        if self.is_zero_at_precision:
            return 0
        return self.abs_prec - self.v

    def valuation(self):
        if self.is_zero_at_precision:
            return self.abs_prec  # lower bound
        return self.v

    def _check(self, other):
        if self.params is other.params:
            return
        if self.params.p != other.params.p or self.params.a != other.params.a \
                or self.params.modulus != other.params.modulus:
            raise MismatchedParams("coefficient fields differ")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other, sign=1):
        """self + other; __sub__ passes sign = -1 for self - other."""
        if not isinstance(other, PadicNumber):
            other = PadicNumber.from_rational(self.params, other)
        params = self.params
        self._check(other)
        A = min(self.abs_prec, other.abs_prec)
        if self.is_zero_at_precision:
            if other.is_zero_at_precision:
                return PadicNumber.zero(params, A)
            return (other if sign == 1 else -other)._truncate_abs(A)
        if other.is_zero_at_precision:
            return self._truncate_abs(A)
        vmin = min(self.v, other.v)
        k = A - vmin
        if k <= 0:
            return PadicNumber.zero(params, A)
        p = params.p
        pk = p ** k
        s1 = p ** (self.v - vmin)
        s2 = sign * p ** (other.v - vmin)
        if params.a == 1:
            unit = (self.unit * s1 + other.unit * s2) % pk
        else:
            unit = tuple((c1 * s1 + c2 * s2) % pk
                         for c1, c2 in zip(self.unit, other.unit))
        return PadicNumber._from_mantissa(params, vmin, unit, A)

    def __sub__(self, other):
        return self.__add__(other, -1)

    @classmethod
    def _from_mantissa(cls, params, v, unit, abs_prec):
        """Canonical form of p^v * unit at abs_prec, the unit (an int for
        a = 1, a coefficient tuple for a > 1) reduced modulo
        p^(abs_prec - v): the common power of p moves into v."""
        p, k = params.p, abs_prec - v
        if params.a == 1:
            shift = _padic_val(unit, p) if unit else k
        else:
            shift = min(_padic_val(c, p) if c else k for c in unit)
        if shift >= k:
            return cls.zero(params, abs_prec)
        if shift:
            d = p ** shift
            unit = unit // d if params.a == 1 else tuple(c // d for c in unit)
        return cls(params, v + shift, unit, abs_prec)

    def _truncate_abs(self, abs_prec):
        if self.is_zero_at_precision:
            return PadicNumber.zero(self.params, min(self.abs_prec, abs_prec))
        if abs_prec >= self.abs_prec:
            return self
        k = abs_prec - self.v
        if k <= 0:
            return PadicNumber.zero(self.params, abs_prec)
        pk = self.params.p ** k
        unit = self.unit % pk if self.params.a == 1 else tuple(
            c % pk for c in self.unit)
        return PadicNumber._from_mantissa(self.params, self.v, unit, abs_prec)

    def __neg__(self):
        if self.is_zero_at_precision:
            return self
        pk = self.params.p ** (self.abs_prec - self.v)
        unit = (-self.unit) % pk if self.params.a == 1 else tuple(
            (-c) % pk for c in self.unit)
        return PadicNumber(self.params, self.v, unit, self.abs_prec)

    def __mul__(self, other):
        if not isinstance(other, PadicNumber):
            other = PadicNumber.from_rational(self.params, other)
        params = self.params
        self._check(other)
        if self.is_zero_at_precision or other.is_zero_at_precision:
            A1 = self.abs_prec if self.is_zero_at_precision else self.v
            A2 = other.abs_prec if other.is_zero_at_precision else other.v
            return PadicNumber.zero(params, min(A1 + A2, 10 ** 9))
        k = min(self.abs_prec - self.v, other.abs_prec - other.v)
        v = self.v + other.v
        pk = params.p ** k
        # a product of units is a unit: no valuation shift
        if params.a == 1:
            unit = self.unit * other.unit % pk
        else:
            unit = _poly_mul(self.unit, other.unit, params.modulus, pk)
        return PadicNumber(params, v, unit, v + k)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return (-self) + other

    def inverse(self):
        if self.is_zero_at_precision:
            raise NonInvertible("zero at working precision")
        p, k = self.params.p, self.rel_prec
        pk = p ** k
        if self.params.a == 1:
            unit = pow(self.unit, -1, pk)
        else:
            unit = _poly_inv(self.unit, self.params.modulus, p, k)
        return PadicNumber(self.params, -self.v, unit, -self.v + k)

    def __truediv__(self, other):
        if not isinstance(other, PadicNumber):
            other = PadicNumber.from_rational(self.params, other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = PadicNumber.from_rational(self.params, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons and export --------------------------------------------

    def is_zero(self):
        return self.is_zero_at_precision

    def congruent(self, other) -> bool:
        """Equality at the joint working precision."""
        if not isinstance(other, PadicNumber):
            other = PadicNumber.from_rational(self.params, other)
        return (self - other).is_zero_at_precision

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            return self.congruent(other)
        return NotImplemented

    def __hash__(self):
        raise TypeError("PadicNumber is not hashable")

    def sigma(self):
        """Witt Frobenius on coefficients; identity for a = 1."""
        if self.params.a == 1 or self.is_zero_at_precision:
            return self
        key = (self.params.p, self.params.a, self.params.modulus,
               self.params.N)
        if key not in _FROB_CACHE:
            _FROB_CACHE[key] = _frobenius_generator_image(self.params)
        y = _FROB_CACHE[key]
        pk = self.params.p ** self.rel_prec
        out = _poly_eval(self.unit, y, self.params.modulus, pk)
        return PadicNumber._from_mantissa(self.params, self.v, out,
                                          self.abs_prec)

    def to_fraction(self) -> Fraction:
        """Rational reconstruction of a (ground-field) value.

        Uses the half-extended Euclidean algorithm modulo p^rel_prec;
        raises ValueError when no small-height representative exists.
        """
        if self.is_zero_at_precision:
            return Fraction(0)
        u = self.unit
        if self.params.a > 1:
            if any(u[1:]):
                raise ValueError("element not in the ground field")
            u = u[0]
        p = self.params.p
        m = p ** self.rel_prec
        u %= m
        # lattice reduction on (m, 0), (u, 1)
        bound = isqrt(m) // 2 or 1
        r0, s0 = m, 0
        r1, s1 = u, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        if s1 == 0 or abs(s1) > bound * 4 or s1 % p == 0:
            raise ValueError("no small rational representative")
        # r1 = s1 u mod p^k throughout, and p does not divide s1
        return Fraction(r1, s1) * Fraction(p) ** self.v

    def __repr__(self):
        if self.is_zero_at_precision:
            return f"O(p^{self.abs_prec})"
        try:
            return str(self.to_fraction())
        except ValueError:
            return f"p^{self.v}*{self.unit} + O(p^{self.abs_prec})"


# in __slots__ order
_SET_PARAMS, _SET_V, _SET_UNIT, _SET_ABS_PREC, _SET_ZERO = (
    getattr(PadicNumber, name).__set__ for name in PadicNumber.__slots__)
