"""Deterministic space-time diagrams of observable evolution.

Row k holds the observable after k steps; time increases downward in all
output formats (row 0 first).  The ASCII format uses '.', 'X', 'Y', 'Z';
the PPM format is binary P6 with one pixel per cell and a fixed palette,
so identical diagrams always produce identical bytes.

A diagram is one packed buffer, two bits a site: each row is a
:meth:`ValidatedCqca.orbit` frame, the Frobenius interleave x(u**2) + u*z(u**2),
shifted to the window's left end, so each byte holds 4 sites as x | z << 1.
``emit_chunks`` streams blocks of whole rows, about 16 KiB packed: one translation
fills each output byte position of a block, then one join drops each row's
padding, so output memory is one block at any height.  ``emit`` joins the blocks.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Literal

from .automaton import ValidatedCqca
from .laurent import Record
from .phase_space import PhaseVector

# The output bytes of one cell, per code x | z << 1 (identity, X, Z, Y); PPM
# draws them white, red, blue and green.
_ASCII = b".XZY"
_PPM = bytes((255, 255, 255, 255, 0, 0, 0, 0, 255, 0, 255, 0))
_BLOCK = 1 << 14  # packed bytes per emitted block, rounded down to whole rows (at least one)


class SpaceTimeDiagram(Record):
    # Rows of row_bytes bytes; byte j of a row holds site left + 4j + i as bits 2i (x) and 2i + 1 (z).
    __slots__ = ("packed", "window")  # window: the leftmost and rightmost site shown

    def __init__(self, packed: bytes, window: tuple[int, int]):
        super().__init__(packed, window)
        if self.width < 1 or len(packed) % self.row_bytes:
            raise ValueError("packed must hold whole rows of a nonempty window")

    @property
    def width(self) -> int:
        return self.window[1] - self.window[0] + 1

    @property
    def row_bytes(self) -> int:
        return 2 * ((self.width + 7) // 8)

    @property
    def height(self) -> int:
        return len(self.packed) // self.row_bytes

    @property
    def rows(self) -> tuple[str, ...]:
        """Each row's letters over '1XYZ', leftmost site first."""
        return tuple(str(b"".join(_cells(self, b"1XZY", b"\n")), "ascii").splitlines())


def build_diagram(
    t: ValidatedCqca, initial: PhaseVector, steps: int
) -> SpaceTimeDiagram:
    """Evolve ``initial`` for ``steps`` steps and align all rows to one window.

    The window is the union of all supports padded by one site on each
    side, so every row has the same width.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    frames = list(t.orbit(initial, steps))
    spans = [(b + ((c & -c).bit_length() + 1) // 2, b + (c.bit_length() + 1) // 2) for c, b in frames if c]
    left = min((lo for lo, _ in spans), default=1) - 2
    right = max((hi for _, hi in spans), default=1)
    size = 2 * ((right - left + 8) // 8)
    rows = (c << 2 * (b - left) if b >= left else c >> 2 * (left - b) for c, b in frames)
    return SpaceTimeDiagram(b"".join(c.to_bytes(size, "little") for c in rows), (left, right))


def _cells(d: SpaceTimeDiagram, symbols: bytes, sep: bytes = b"") -> Iterator[bytes]:
    """Blocks of whole rows, each row's cells then ``sep``; code k's cell is quarter k of ``symbols``.

    One translation of a block writes each byte of each site position in a packed byte.
    """
    c = len(symbols) // 4
    # Byte b holds code (b >> 2i) & 3: each code's run of 4**i bytes, 4**(3 - i) times.
    tables = [bytes(symbols[c * code + j] for code in range(4) for _ in range(4**i)) * 4 ** (3 - i)
              for i in range(4) for j in range(c)]
    size, row = d.row_bytes * max(1, _BLOCK // d.row_bytes), 4 * c * d.row_bytes
    for start in range(0, len(d.packed), size):
        block = d.packed[start : start + size]
        cells = bytearray(4 * c * len(block))
        for k, table in enumerate(tables):
            cells[k :: 4 * c] = block.translate(table)
        view = memoryview(cells)
        yield sep.join([*(view[k : k + c * d.width] for k in range(0, len(cells), row)), b""])


def emit_chunks(d: SpaceTimeDiagram, format: Literal["ascii", "ppm"]) -> Iterator[bytes]:
    """Serialize a diagram as blocks of whole rows, PPM header first; byte-exact across platforms."""
    if format == "ascii":
        return _cells(d, _ASCII, b"\n")
    if format == "ppm":
        return chain([f"P6\n{d.width} {d.height}\n255\n".encode("ascii")], _cells(d, _PPM))
    raise ValueError(f"unknown format {format!r}")


def emit(d: SpaceTimeDiagram, format: Literal["ascii", "ppm"]) -> bytes:
    """The whole of ``emit_chunks`` as one bytes object."""
    return b"".join(emit_chunks(d, format))
