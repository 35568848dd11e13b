"""Truncated Laurent series over p-adic coefficients, modelling E_K^dagger
and R_K.

A LaurentElement is a finite exponent -> coefficient map confined to the
window [-M_neg, M_pos] of its RingParams.  Terms pushed outside the window by
an operation are never silently dropped: the corresponding tail flag is set.
A window with M_neg = 0 is the truncation of K[[t]].  An exact zero, with no
term and no tail, is falsy.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MismatchedParams, NonInvertible, WindowTooSmall
from .padic import PadicNumber, RingParams


class LaurentElement:
    """Element of a Laurent-window truncation of E_K^dagger or R_K."""

    __slots__ = ("params", "coeffs", "tail_pos", "tail_neg")

    def __init__(self, params: RingParams, coeffs: dict[int, PadicNumber],
                 tail_pos: bool = False, tail_neg: bool = False):
        clean = {}
        lo, hi = params.window_lo, params.window_hi
        for e, c in coeffs.items():
            if c.is_zero_at_precision:
                continue
            if e > hi:
                tail_pos = True
                continue
            if e < lo:
                tail_neg = True
                continue
            clean[e] = c
        self.params = params
        self.coeffs = clean
        self.tail_pos = tail_pos
        self.tail_neg = tail_neg

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, params):
        return cls(params, {})

    @classmethod
    def one(cls, params):
        return cls.constant(params, 1)

    @classmethod
    def constant(cls, params, value):
        return cls(params, {0: PadicNumber.from_rational(params, value)})

    @classmethod
    def monomial(cls, params, exponent: int, value=1):
        return cls(params,
                   {exponent: PadicNumber.from_rational(params, value)})

    @classmethod
    def from_terms(cls, params, terms):
        """terms: iterable of (exponent, rational-ish coefficient)."""
        coeffs = {}
        for e, c in terms:
            cv = c if isinstance(c, PadicNumber) \
                else PadicNumber.from_rational(params, c)
            coeffs[e] = coeffs[e] + cv if e in coeffs else cv
        return cls(params, coeffs)

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        """False exactly for an exact zero: no term and no tail."""
        return bool(self.coeffs or self.tail_pos or self.tail_neg)

    def has_tail(self):
        return self.tail_pos or self.tail_neg

    def coefficient(self, e: int) -> PadicNumber:
        c = self.coeffs.get(e)
        return PadicNumber.zero(self.params) if c is None else c

    def min_exponent(self):
        return min(self.coeffs) if self.coeffs else None

    def is_constant(self):
        return all(e == 0 for e in self.coeffs)

    def _check(self, other):
        if self.params is not other.params and self.params != other.params:
            raise MismatchedParams("operands over different RingParams")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentElement):
            other = LaurentElement.constant(self.params, other)
        self._check(other)
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs[e] + c if e in coeffs else c
        return LaurentElement(self.params, coeffs,
                              self.tail_pos or other.tail_pos,
                              self.tail_neg or other.tail_neg)

    def __neg__(self):
        return LaurentElement(self.params,
                              {e: -c for e, c in self.coeffs.items()},
                              self.tail_pos, self.tail_neg)

    def __sub__(self, other):
        if not isinstance(other, LaurentElement):
            other = LaurentElement.constant(self.params, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentElement):
            other = LaurentElement.constant(self.params, other)
        self._check(other)
        coeffs: dict[int, PadicNumber] = {}
        tail_pos = False
        tail_neg = False
        lo, hi = self.params.window_lo, self.params.window_hi
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e > hi:
                    tail_pos = True
                    continue
                if e < lo:
                    tail_neg = True
                    continue
                prod = c1 * c2
                coeffs[e] = coeffs[e] + prod if e in coeffs else prod
        # a truncated factor contaminates the whole product edge
        tail_pos |= (self.tail_pos and not other.is_zero()) or \
                    (other.tail_pos and not self.is_zero())
        tail_neg |= (self.tail_neg and not other.is_zero()) or \
                    (other.tail_neg and not self.is_zero())
        return LaurentElement(self.params, coeffs, tail_pos, tail_neg)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "LaurentElement":
        if not isinstance(c, PadicNumber):
            c = PadicNumber.from_rational(self.params, c)
        return LaurentElement(self.params,
                              {e: x * c for e, x in self.coeffs.items()},
                              self.tail_pos, self.tail_neg)

    def shift(self, k: int) -> "LaurentElement":
        """Multiply by t^k."""
        return LaurentElement(self.params,
                              {e + k: c for e, c in self.coeffs.items()},
                              self.tail_pos, self.tail_neg)

    def inverse(self) -> "LaurentElement":
        """Inverse of a unit c t^k (1 + z): c invertible in K and t^-k in
        the window, else NonInvertible or WindowTooSmall, never a 0."""
        if self.is_zero():
            raise NonInvertible("zero series")
        if self.tail_neg:
            raise NonInvertible("negative tail: lowest term unknown")
        k = self.min_exponent()
        if -k < self.params.window_lo:
            if not self.params.window_lo:
                raise NonInvertible(f"t^{k} is not a unit of K[[t]]")
            raise WindowTooSmall(f"the inverse starts at t^{-k}; a window "
                                 f"with bottom {k} holds it")
        c = self.coeffs[k]
        lead_inv = c.inverse()
        # self = c t^k (1 + z) with z of strictly positive order
        z = (self.shift(-k)).scale(lead_inv) - 1
        inv = term = LaurentElement.one(self.params)
        width = self.params.window_hi - self.params.window_lo
        for _ in range(width + 1):
            term = -(term * z)
            if not term:
                break
            inv = inv + term
        else:
            # true inverse continues beyond the window
            inv = LaurentElement(inv.params, inv.coeffs, True, inv.tail_neg)
        return inv.shift(-k).scale(lead_inv)

    def __truediv__(self, other):
        if not isinstance(other, LaurentElement):
            other = LaurentElement.constant(self.params, other)
        return self * other.inverse()

    def is_unit(self):
        if self.is_zero() or self.tail_neg:
            return False
        return True  # lowest coefficient is nonzero at precision by storage

    # -- sigma and differentiation ------------------------------------------

    def sigma(self) -> "LaurentElement":
        """Frobenius: t -> t^p, Witt Frobenius on coefficients."""
        p = self.params.p
        lo, hi = self.params.window_lo, self.params.window_hi
        coeffs = {}
        tail_pos, tail_neg = self.tail_pos, self.tail_neg
        for e, c in self.coeffs.items():
            ep = p * e
            if ep > hi:
                tail_pos = True
            elif ep < lo:
                tail_neg = True
            else:
                coeffs[ep] = c.sigma()
        return LaurentElement(self.params, coeffs, tail_pos, tail_neg)

    def d_dt(self) -> "LaurentElement":
        coeffs = {}
        for e, c in self.coeffs.items():
            if e == 0:
                continue
            coeffs[e - 1] = c * e
        return LaurentElement(self.params, coeffs, self.tail_pos,
                              self.tail_neg)

    def D(self) -> "LaurentElement":
        """The logarithmic derivative operator D = t d/dt."""
        return LaurentElement(self.params,
                              {e: c * e for e, c in self.coeffs.items()
                               if e != 0},
                              self.tail_pos, self.tail_neg)

    # -- comparisons, export ------------------------------------------------

    def congruent(self, other) -> bool:
        if not isinstance(other, LaurentElement):
            other = LaurentElement.constant(self.params, other)
        return (self - other).is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentElement)):
            return self.congruent(other)
        return NotImplemented

    def __hash__(self):  # pragma: no cover
        raise TypeError("LaurentElement is not hashable")

    def rebase(self, params: RingParams) -> "LaurentElement":
        """Reinterpret over new params (a window or precision change)."""
        coeffs = {e: PadicNumber(params, c.v, c.unit, c.abs_prec,
                                 is_zero=c.is_zero_at_precision)
                  for e, c in self.coeffs.items()}
        return LaurentElement(params, coeffs, self.tail_pos, self.tail_neg)

    def to_json(self):
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            try:
                s = str(c.to_fraction())
            except ValueError:
                # a unit of an extension is written by its coordinates
                s = f"p^{c.v}*" + (f"[{','.join(map(str, c.unit))}]"
                                   if isinstance(c.unit, tuple)
                                   else str(c.unit))
            terms.append([e, s])
        return {"terms": terms}

    @classmethod
    def from_json(cls, params, obj):
        terms = []
        for e, s in obj["terms"]:
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} is not an integer")
            s = str(s)
            if s.startswith("p^"):
                vpart, upart = s[2:].split("*")
                scale = Fraction(params.p) ** int(vpart)
                c = PadicNumber.from_poly(params, [
                    int(u) * scale for u in upart.strip("[]").split(",")])
            else:
                try:
                    value = Fraction(s)
                except ZeroDivisionError:
                    raise ValueError(f"coefficient {s!r} has a zero "
                                     "denominator") from None
                c = PadicNumber.from_rational(params, value)
            terms.append((e, c))
        return cls.from_terms(params, terms)

    def __repr__(self):
        if self.is_zero():
            body = "0"
        else:
            parts = []
            for e in sorted(self.coeffs):
                c = self.coeffs[e]
                if e == 0:
                    parts.append(f"{c!r}")
                elif e == 1:
                    parts.append(f"({c!r})*t")
                else:
                    parts.append(f"({c!r})*t^{e}")
            body = " + ".join(parts)
        tails = ""
        if self.tail_pos:
            tails += " + O(t^big)"
        if self.tail_neg:
            tails += " + O(t^-big)"
        return body + tails

