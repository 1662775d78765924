"""Phase-space encoding of Pauli products.

A Pauli product (phases dropped) is labeled by a pair of Laurent
polynomials: the X-component marks sites carrying X or Y, the
Z-component marks sites carrying Z or Y.  The symplectic form on these
pairs is 0 for commuting operators and 1 for anticommuting ones, which
is all the commutation information the symbolic layer needs; exact phase
bookkeeping lives in :mod:`cqcalab.finite_chain`.

One kernel writes every per-step text output: :func:`frame_cells` packs a block of frames, and
:func:`cell_rows` writes its cells (diagrams, ``cqca finite``, ``cqca evolve``, ``letters``).
"""

from __future__ import annotations

import re
from functools import cache
from typing import Iterable

from .laurent import LaurentPoly, Record, coefficient_dot, spread_bits

# The letter of each site code x | z << 1; every letter table is read off it.
_SITE_LETTERS = "1XZY"
# Letter -> its code as a base-4 digit: a letter string, last letter first, is a frame in base 4.
_CODE_DIGIT = str.maketrans(_SITE_LETTERS, "0123")
_INT = re.compile("[+-]?[0-9]+")


@cache
def _tables(symbols: bytes) -> list[bytes]:
    # Site position i of a byte, cell byte j: byte b -> byte j of the cell of code (b >> 2i) & 3.
    c = len(symbols) // 4
    return [b"".join(symbols[c * code + j:c * code + j + 1] * 4**i for code in range(4)) * 4 ** (3 - i)
            for i in range(4) for j in range(c)]


def cell_rows(packed: bytes, row_bytes: int, width: int, symbols: bytes) -> list[memoryview]:
    """The cells of sites 0..width-1 of each row of ``packed``, rows of ``row_bytes`` >= 1 bytes with
    site 4j + i as code x | z << 1 in bits 2i, 2i + 1 of byte j; code k's cell is quarter k of ``symbols``.
    One translation per site position and cell byte writes the whole block."""
    c = len(symbols) // 4
    cells = bytearray(4 * c * len(packed))
    for k, table in enumerate(_tables(symbols)):
        cells[k::4 * c] = packed.translate(table)
    view = memoryview(cells)
    return [view[k:k + c * width] for k in range(0, len(cells), 4 * c * row_bytes)]


def frame_cells(frames: Iterable[tuple[int, int]], lefts: Iterable[int], width: int, symbols: bytes) -> list:
    """cell_rows of frames (c, base) packed at ``width``, the block's widest row, each from the
    site its left names; a frame must be the identity from left + width on."""
    size = (width + 3) // 4 or 1
    packed = b"".join([(c << 2 * (b - left) if b >= left else c >> 2 * (left - b)).to_bytes(size, "little")
                       for (c, b), left in zip(frames, lefts)])
    return cell_rows(packed, size, width, symbols)


class PhaseVector(Record):
    """Pair (xi_plus, xi_minus) of Laurent polynomials labeling a Pauli product."""

    __slots__ = ("xi_plus", "xi_minus")

    @classmethod
    def zero(cls) -> "PhaseVector":
        return cls(LaurentPoly.zero(), LaurentPoly.zero())

    def __add__(self, other: "PhaseVector") -> "PhaseVector":
        """Phase-space image of the operator product (phases dropped)."""
        return PhaseVector(self.xi_plus + other.xi_plus, self.xi_minus + other.xi_minus)

    def frame(self) -> tuple[int, int]:
        """(c, base): bits 2k and 2k + 1 of c are the x and z bits of site base + k, its code x | z << 1.

        c is the Frobenius interleave x(u**2) + u z(u**2) from the lowest site; the identity is (0, 0).
        """
        parts = [(z, p) for z, p in enumerate((self.xi_plus, self.xi_minus)) if p]
        base = min((p.min_exp for _, p in parts), default=0)
        return sum(spread_bits(p.mask) << 2 * (p.min_exp - base) + z for z, p in parts), base

    @classmethod
    def from_frame(cls, c: int, base: int) -> "PhaseVector":
        """The inverse of :meth:`frame`, for any base; c need not start at site base."""
        digits = format(c, f"0{c.bit_length() + 2 & -2}b")  # z, x digit pairs, top site first
        return cls(LaurentPoly(int(digits[1::2], 2), base), LaurentPoly(int(digits[::2], 2), base))

    def support(self) -> tuple[int, int] | None:
        """(leftmost site, rightmost site) touched, or None for the identity."""
        spans = [p.degree_span() for p in (self.xi_plus, self.xi_minus) if not p.is_zero]
        if not spans:
            return None
        return min(lo for lo, _ in spans), max(hi for _, hi in spans)

    def letter_at(self, site: int) -> str:
        """The letter on one site; the per-cell reference for :meth:`letters`."""
        return _SITE_LETTERS[self.xi_plus.coefficient(site) | self.xi_minus.coefficient(site) << 1]

    def letters(self, lo: int, hi: int) -> str:
        """The letters on sites lo..hi (inclusive ends), lo first: the kernel's one-row call."""
        width = hi - lo + 1
        c = spread_bits(self.xi_plus.coefficients(lo, width)) | spread_bits(self.xi_minus.coefficients(lo, width)) << 1
        return str(frame_cells([(c, lo)], [lo], width, b"1XZY")[0], "ascii")

    def restricted(self, lo: int) -> "PhaseVector":
        """Keep only the tensor factors on sites lo and to its right."""

        def cut(p: LaurentPoly) -> LaurentPoly:
            return LaurentPoly(p.mask >> max(lo - p.min_exp, 0), max(lo, p.min_exp))

        return PhaseVector(cut(self.xi_plus), cut(self.xi_minus))

    def shifted(self, k: int) -> "PhaseVector":
        """Lattice translation by k sites."""
        return PhaseVector(self.xi_plus.shifted(k), self.xi_minus.shifted(k))

    def __str__(self) -> str:
        return format_observable(self)


def pauli_to_phase_space(letters: str, offset: int = 0) -> PhaseVector:
    """Encode a letter string over {1, X, Y, Z}; the first letter sits at ``offset``."""
    if not letters:
        raise ValueError("empty Pauli string")
    illegal = letters.lstrip(_SITE_LETTERS)
    if illegal:
        raise ValueError(f"illegal Pauli letter {illegal[0]!r} at index {len(letters) - len(illegal)}")
    return PhaseVector.from_frame(int(letters[::-1].translate(_CODE_DIGIT), 4), offset)


def phase_space_to_pauli(v: PhaseVector) -> tuple[str, int]:
    """Minimal-width letter string and its offset; the identity is ("1", 0)."""
    span = v.support()
    if span is None:
        return "1", 0
    lo, hi = span
    return v.letters(lo, hi), lo


def symplectic_form(a: PhaseVector, b: PhaseVector) -> int:
    """0 iff the labeled operators commute, 1 iff they anticommute."""
    return (
        coefficient_dot(a.xi_plus, b.xi_minus) ^ coefficient_dot(a.xi_minus, b.xi_plus)
    )


def parse_int(text: str) -> int:
    """int(text) for an optional sign then ASCII digits only: no other digits, '_' or spaces."""
    if not _INT.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_observable(text: str) -> PhaseVector:
    """Parse the "ZYX@-1" literal format; "@offset" defaults to 0."""
    body, sep, tail = text.strip().partition("@")
    offset = 0
    if sep:
        try:
            offset = parse_int(tail)
        except ValueError:
            raise ValueError(f"bad observable offset {tail!r}") from None
    return pauli_to_phase_space(body, offset)


def format_observable(v: PhaseVector) -> str:
    letters, offset = phase_space_to_pauli(v)
    return letters if offset == 0 else f"{letters}@{offset}"
