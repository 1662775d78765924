"""Deterministic space-time diagrams of observable evolution.

Row k holds the observable after k steps; time increases downward in all
output formats (row 0 first).  The ASCII format uses '.', 'X', 'Y', 'Z';
the PPM format is binary P6 with one pixel per cell and a fixed palette,
so identical diagrams always produce identical bytes.

A diagram row is a frame of :meth:`ValidatedCqca.orbit`, as the orbit yields
it.  ``emit_chunks`` streams blocks of whole rows, about 16 KiB packed at the window's
width: :func:`phase_space.frame_cells` formats a block over the union of its rows'
supports only, and one join adds the rest of the window as slices of one background
row, so output memory is one block at any height.  ``emit`` joins the blocks.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, repeat
from operator import or_
from typing import Iterator, Literal

from .automaton import ValidatedCqca
from .laurent import Record
from .phase_space import PhaseVector, frame_cells

# The output bytes of one cell, per code x | z << 1 (identity, X, Z, Y); PPM
# draws them white, red, blue and green.
_ASCII = b".XZY"
_PPM = bytes((255, 255, 255, 255, 0, 0, 0, 0, 255, 0, 255, 0))
_BLOCK = 1 << 14  # packed bytes per emitted block at the window's width, rounded down to whole rows (at least one)


class SpaceTimeDiagram(Record):
    # frames: one (c, base) a row, as PhaseVector.frame, rejected off the window when written;
    # window: the leftmost and rightmost site shown.
    __slots__ = ("frames", "window")

    def __init__(self, frames: tuple[tuple[int, int], ...], window: tuple[int, int]):
        super().__init__(frames, window)
        if not frames or self.width < 1:
            raise ValueError("a diagram needs a row and a nonempty window")

    @property
    def width(self) -> int:
        return self.window[1] - self.window[0] + 1

    @property
    def height(self) -> int:
        return len(self.frames)

    @property
    def rows(self) -> tuple[str, ...]:
        """Each row's letters over '1XYZ', leftmost site first."""
        return tuple(str(b"".join(_blocks(self, b"1XZY", b"\n")), "ascii").splitlines())


def _support(frames: tuple[tuple[int, int], ...]) -> tuple[int, int] | None:
    """The leftmost and rightmost site of the union of some frames' supports; None if it is empty."""
    base = min((b for c, b in frames if c), default=0)  # an identity row's base may be anywhere
    union = reduce(or_, (c << 2 * (b - base) for c, b in frames if c), 0)
    if not union:
        return None
    return base + ((union & -union).bit_length() - 1) // 2, base + (union.bit_length() - 1) // 2


def build_diagram(t: ValidatedCqca, initial: PhaseVector, steps: int) -> SpaceTimeDiagram:
    """Evolve ``initial`` for ``steps`` steps, a row a frame, on one window: the union of all supports
    padded by one site on each side (sites -1..1 if every row is the identity)."""
    if steps < 1:
        raise ValueError("steps must be positive")
    frames = tuple(t.orbit(initial, steps))
    lo, hi = _support(frames) or (0, 0)
    return SpaceTimeDiagram(frames, (lo - 1, hi + 1))


def _blocks(d: SpaceTimeDiagram, symbols: bytes, sep: bytes = b"") -> Iterator[bytes]:
    """Blocks of whole rows, each row's cells then ``sep``; code k's cell is quarter k of ``symbols``.
    Cells off the union of a block's supports are slices of one background row."""
    c, (left, right) = len(symbols) // 4, d.window
    background = symbols[:c] * d.width
    size = max(1, _BLOCK // ((d.width + 3) // 4))
    for start in range(0, d.height, size):
        block = d.frames[start:start + size]
        lo, hi = _support(block) or (left, left)
        if lo < left or hi > right:
            raise ValueError(f"row {start} or a later one has sites off the window {d.window}")
        parts = [background[:c * (lo - left)], None, background[c * (hi + 1 - left):] + sep] * len(block)
        parts[1::3] = frame_cells(block, repeat(lo), hi - lo + 1, symbols)
        yield b"".join(parts)


def emit_chunks(d: SpaceTimeDiagram, format: Literal["ascii", "ppm"]) -> Iterator[bytes]:
    """Serialize a diagram as blocks of whole rows, PPM header first; byte-exact across platforms."""
    if format == "ascii":
        return _blocks(d, _ASCII, b"\n")
    if format == "ppm":
        return chain([f"P6\n{d.width} {d.height}\n255\n".encode("ascii")], _blocks(d, _PPM))
    raise ValueError(f"unknown format {format!r}")


def emit(d: SpaceTimeDiagram, format: Literal["ascii", "ppm"]) -> bytes:
    """The whole of ``emit_chunks`` as one bytes object."""
    return b"".join(emit_chunks(d, format))
