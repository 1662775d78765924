"""Deterministic space-time diagrams of observable evolution.

Row k holds the observable after k steps; time increases downward in all
output formats (row 0 first).  The ASCII format uses '.', 'X', 'Y', 'Z';
the PPM format is binary P6 with one pixel per cell and a fixed palette,
so identical diagrams always produce identical bytes.

Both stages work a whole row at a time: each row of letters is built from
the two bitsets of one :meth:`ValidatedCqca.orbit` frame by ``site_letters``,
and each PPM colour channel of a row is written by one byte translation.
"""

from __future__ import annotations

import dataclasses
from typing import Literal

from .automaton import ValidatedCqca
from .phase_space import PhaseVector, site_letters

_PALETTE = {
    "1": (255, 255, 255),
    "X": (255, 0, 0),
    "Y": (0, 255, 0),
    "Z": (0, 0, 255),
}
_LETTERS = "".join(_PALETTE).encode("ascii")
# One bytes.translate table per colour channel: letter -> channel value.
_CHANNELS = tuple(
    bytes.maketrans(_LETTERS, bytes(rgb[c] for rgb in _PALETTE.values())) for c in range(3)
)


@dataclasses.dataclass(frozen=True)
class SpaceTimeDiagram:
    rows: tuple[str, ...]
    window: tuple[int, int]  # leftmost and rightmost site shown

    @property
    def width(self) -> int:
        return self.window[1] - self.window[0] + 1

    @property
    def height(self) -> int:
        return len(self.rows)


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
    occupied = [(x | z, base) for x, z, base in frames if x | z]
    left = min((base + (m & -m).bit_length() for m, base in occupied), default=1) - 2
    right = max((base + m.bit_length() for m, base in occupied), default=1)
    width = right - left + 1
    rows = []
    for x, z, base in frames:
        s = base - left
        rows.append(site_letters(*((x << s, z << s) if s >= 0 else (x >> -s, z >> -s)), width))
    return SpaceTimeDiagram(tuple(rows), (left, right))


def emit(d: SpaceTimeDiagram, format: Literal["ascii", "ppm"]) -> bytes:
    """Serialize a diagram; byte-exact across platforms."""
    if format == "ascii":
        translated = (row.replace("1", ".") for row in d.rows)
        return ("\n".join(translated) + "\n").encode("ascii")
    if format == "ppm":
        header = f"P6\n{d.width} {d.height}\n255\n".encode("ascii")
        row_size = 3 * d.width
        # One buffer for the header and every pixel, filled in place, so no
        # second copy of the pixels exists until the final bytes().
        pixels = bytearray(len(header) + row_size * d.height)
        pixels[: len(header)] = header
        start = len(header)
        for row in d.rows:
            row_bytes = row.encode("ascii")
            if row_bytes.translate(None, _LETTERS):
                raise ValueError(f"row holds letters outside {_LETTERS.decode()!r}")
            end = start + row_size
            for c, channel in enumerate(_CHANNELS):
                pixels[start + c : end : 3] = row_bytes.translate(channel)
            start = end
        return bytes(pixels)
    raise ValueError(f"unknown format {format!r}")
