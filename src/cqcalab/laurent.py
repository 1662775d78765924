"""Exact arithmetic on Laurent polynomials over GF(2).

A polynomial is stored as a Python-int bitset together with the exponent
of its lowest-order term: bit k of ``mask`` is the coefficient of
``u**(min_exp + k)``.  Addition is XOR, multiplication a carry-less
convolution, squaring a Frobenius bit-spread (one translation of the
mask's hex digits, each to a byte) and gcd Euclid's algorithm on shifted
XORs, so every operation is exact.

Canonical form: the zero polynomial is ``(mask=0, min_exp=0)``; any
nonzero polynomial has bit 0 of the mask set (the offset absorbs trailing
zeros), so equal polynomials compare equal structurally.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterator


def clmul(a: int, b: int) -> int:
    """Carry-less product of two bitset-encoded polynomials."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


# Hex digit d -> d squared as a polynomial, one byte: its bits 0..3 moved to bits 0, 2, 4, 6.
_SPREAD_HEX = bytes.maketrans(b"0123456789abcdef", bytes(int(f"{d:04b}", 4) for d in range(16)))


def spread_bits(mask: int) -> int:
    """p(u) -> p(u**2) on a bitset, the square over F2 (Frobenius): bit k moves to bit 2k,
    so each hex digit, top digit first, becomes one byte, by one translation."""
    return int.from_bytes(mask.to_bytes((mask.bit_length() + 7) // 8, "big").hex().encode().translate(_SPREAD_HEX),
                          "big")


def _gcd_bits(a: int, b: int) -> int:
    # a mod b: clear a's top bit with a shifted copy of b until a is shorter.
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


class Record:
    """An immutable value, its fields its class's __slots__ (or _fields, to leave a slot out):
    equal to a record of its class with equal fields, hashed and printed by its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = attrgetter(*fields) if fields else type  # no fields: one class suffices
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)

    def __init__(self, *values, **named):
        setters = self._setters
        if named:  # keywords bind to the fields after the positional values, in field order
            values += tuple(named.pop(name) for name in self._fields[len(values):] if name in named)
        if named or len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, name) for name in self._fields)


class LaurentPoly(Record):
    """An F2-coefficient Laurent polynomial in the formal variable u."""

    __slots__ = ("mask", "min_exp")

    def __init__(self, mask: int = 0, min_exp: int = 0):
        if mask < 0:
            raise ValueError("coefficient mask must be nonnegative")
        if not mask:
            min_exp = 0
        elif not mask & 1:  # with bit 0 set, the mask is already canonical
            shift = (mask & -mask).bit_length() - 1
            mask >>= shift
            min_exp += shift
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "min_exp", min_exp)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(1, 0)

    @classmethod
    def from_exponents(cls, exponents) -> "LaurentPoly":
        """Sum of u**e over the given exponents; repeats cancel mod 2."""
        exponents = list(exponents)
        if not exponents:
            return cls.zero()
        lo = min(exponents)
        mask = 0
        for e in exponents:
            mask ^= 1 << (e - lo)
        return cls(mask, lo)

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def degree_span(self) -> tuple[int, int] | None:
        """(lowest exponent, highest exponent), or None for the zero polynomial."""
        if self.is_zero:
            return None
        return self.min_exp, self.min_exp + self.mask.bit_length() - 1

    def coefficient(self, exponent: int) -> int:
        k = exponent - self.min_exp
        if k < 0:
            return 0
        return (self.mask >> k) & 1

    def coefficients(self, lo: int, width: int) -> int:
        """Coefficients of u**lo .. u**(lo + width - 1) as a width-bit mask."""
        shift = self.min_exp - lo
        if shift >= width:
            return 0
        mask = self.mask << shift if shift >= 0 else self.mask >> -shift
        return mask & ((1 << width) - 1)

    def exponents(self) -> Iterator[int]:
        """Exponents with coefficient 1, in increasing order, in one pass over the digits."""
        digits = format(self.mask, "b")[::-1]
        k = digits.find("1")
        while k >= 0:
            yield self.min_exp + k
            k = digits.find("1", k + 1)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_exp, other.min_exp)
        mask = (self.mask << (self.min_exp - lo)) ^ (other.mask << (other.min_exp - lo))
        return LaurentPoly(mask, lo)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero()
        return LaurentPoly(clmul(self.mask, other.mask), self.min_exp + other.min_exp)

    def squared(self) -> "LaurentPoly":
        """The square, in linear time: over F2, p(u)**2 = p(u**2) (Frobenius)."""
        return LaurentPoly(spread_bits(self.mask), 2 * self.min_exp)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by the unit u**k."""
        if self.is_zero:
            return self
        return LaurentPoly(self.mask, self.min_exp + k)

    # -- structure ----------------------------------------------------

    def is_reflection_symmetric(self, center: int = 0) -> bool:
        """True iff the coefficients are mirror-symmetric about ``center``.

        The zero polynomial is symmetric about every center.
        """
        if self.is_zero:
            return True
        lo, hi = self.degree_span()
        if lo + hi != 2 * center:
            return False
        return int(format(self.mask, "b")[::-1], 2) == self.mask

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({render_poly(self)!r})"


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Greatest common divisor, unit-normalized to min_exp = 0.

    Units u**k are quotiented out, so the result is one fixed
    representative per associate class.  Rejects the (0, 0) input.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return LaurentPoly(_gcd_bits(p.mask, q.mask), 0)


def coefficient_dot(p: LaurentPoly, q: LaurentPoly) -> int:
    """Parity of the coefficientwise scalar product (exponents aligned)."""
    if p.is_zero or q.is_zero:
        return 0
    lo = min(p.min_exp, q.min_exp)
    overlap = (p.mask << (p.min_exp - lo)) & (q.mask << (q.min_exp - lo))
    return overlap.bit_count() & 1


def render_poly(p: LaurentPoly) -> str:
    """Render in increasing exponent order, e.g. "u^-1 + 1 + u"; "0" for zero."""
    if p.is_zero:
        return "0"
    parts = []
    for e in p.exponents():
        if e == 0:
            parts.append("1")
        elif e == 1:
            parts.append("u")
        else:
            parts.append(f"u^{e}")
    return " + ".join(parts)


class PolySyntaxError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


# One term at a time along the whitespace-stripped text: "1", "u" or "u^<int>".
_TERM = re.compile(r"(1)|u(\^([+-]?)([0-9]*))?")
# The widest exponent span, highest minus lowest, that parse_poly builds a mask for.
MAX_EXPONENT_SPAN = 1 << 20


def parse_poly(text: str) -> LaurentPoly:
    """Parse "0" or a "+"-separated list of terms "1", "u", "u^<int>".

    Whitespace is ignored, even inside an exponent.  Repeated terms cancel mod 2.
    A term that takes the exponent span over MAX_EXPONENT_SPAN is an error, raised
    before any mask is built: a short text must not make a huge polynomial.
    """
    kept = [i for i, c in enumerate(text) if not c.isspace()]
    stripped = "".join(text[i] for i in kept)
    kept.append(len(text))  # kept[pos] is the position of stripped[pos:] in text
    if not stripped:
        raise PolySyntaxError("empty polynomial", 0)
    if stripped[0] == "0":
        if len(stripped) > 1:
            raise PolySyntaxError("unexpected input after '0'", kept[1])
        return LaurentPoly.zero()
    exponents, pos, lo, hi = [], 0, None, None
    while True:
        term = _TERM.match(stripped, pos)
        if term is None:
            raise PolySyntaxError(f"expected a term, found {stripped[pos:pos + 1] or None!r}", kept[pos])
        one, caret, sign, digits = term.groups()
        pos = term.end()
        if caret and not digits:
            raise PolySyntaxError("expected an integer exponent", kept[pos])
        try:
            e = 0 if one else int(sign + digits) if caret else 1
        except ValueError:  # int()'s digit limit; the pattern admits only ASCII digits
            raise PolySyntaxError("exponent has too many digits", kept[term.start(4)]) from None
        lo, hi = (e, e) if lo is None else (min(lo, e), max(hi, e))
        if hi - lo > MAX_EXPONENT_SPAN:
            raise PolySyntaxError(f"exponents span {hi - lo}, more than {MAX_EXPONENT_SPAN}", kept[term.start()])
        exponents.append(e)
        if pos == len(stripped):
            return LaurentPoly.from_exponents(exponents)
        if stripped[pos] != "+":
            raise PolySyntaxError(f"expected '+', found {stripped[pos]!r}", kept[pos])
        pos += 1
