import hashlib

import pytest

from cqcalab.automaton import fractal, glider, identity
from cqcalab.phase_space import parse_observable
from cqcalab.render import SpaceTimeDiagram, build_diagram, emit

FRACTAL_128_ASCII_SHA256 = (
    "b06c002f99d284d82623f9a053044647fa7057444ae49f3f658d21437660a92b"
)
FRACTAL_128_PPM_SHA256 = (
    "5d6200a8fe1ca2ffd2a4454f29046b565ecc6d0fab457d5f9d87478a81075979"
)

_PALETTE = {
    (255, 255, 255): ".",
    (255, 0, 0): "X",
    (0, 255, 0): "Y",
    (0, 0, 255): "Z",
}


# The per-cell PPM writer the row-at-a-time one replaced, kept as its reference.
_PALETTE_RGB = {
    "1": (255, 255, 255),
    "X": (255, 0, 0),
    "Y": (0, 255, 0),
    "Z": (0, 0, 255),
}


def _ppm_per_cell(d):
    header = f"P6\n{d.width} {d.height}\n255\n".encode("ascii")
    pixels = bytearray()
    for row in d.rows:
        for letter in row:
            pixels.extend(_PALETTE_RGB[letter])
    return header + bytes(pixels)


class TestBuildDiagram:
    def test_glider_checkerboard_start(self):
        d = build_diagram(glider(), parse_observable("X@0"), 3)
        assert d.rows[0].replace("1", ".").strip(".") == "X"
        assert d.rows[1].replace("1", ".").strip(".") == "Z"
        assert d.rows[2].replace("1", ".").strip(".") == "ZXZ"

    def test_identity_repeats_rows(self):
        d = build_diagram(identity(), parse_observable("Z@0"), 2)
        assert len(d.rows) == 3
        assert len(set(d.rows)) == 1

    def test_rows_match_symbolic_evolution(self):
        t = fractal()
        d = build_diagram(t, parse_observable("Z@0"), 4)
        v = parse_observable("Z@0")
        left, right = d.window
        for row in d.rows:
            assert row == "".join(v.letter_at(s) for s in range(left, right + 1))
            v = t.apply(v)

    def test_uniform_width(self):
        d = build_diagram(fractal(), parse_observable("Z@0"), 9)
        assert {len(row) for row in d.rows} == {d.width}

    def test_window_pads_union_of_supports(self):
        d = build_diagram(glider(), parse_observable("ZYX@-1"), 2)
        # supports -1..1, -2..0, -3..-1; padded union is -4..2
        assert d.window == (-4, 2)


class TestEmit:
    def test_one_cell_identity(self):
        d = SpaceTimeDiagram(rows=("1",), window=(0, 0))
        assert emit(d, "ascii") == b".\n"

    def test_ascii_rows_and_letters(self):
        d = build_diagram(glider(), parse_observable("X@0"), 2)
        text = emit(d, "ascii").decode("ascii")
        assert text.splitlines()[2].strip(".") == "ZXZ"

    def test_ppm_header_and_size(self):
        d = build_diagram(glider(), parse_observable("X@0"), 2)
        data = emit(d, "ppm")
        header = f"P6\n{d.width} {d.height}\n255\n".encode()
        assert data.startswith(header)
        assert len(data) == len(header) + 3 * d.width * d.height

    def test_formats_agree_cell_by_cell(self):
        d = build_diagram(fractal(), parse_observable("Z@0"), 12)
        ascii_rows = emit(d, "ascii").decode().splitlines()
        data = emit(d, "ppm")
        pixels = data.split(b"\n", 3)[3]
        for r, row in enumerate(ascii_rows):
            for col, cell in enumerate(row):
                at = 3 * (r * d.width + col)
                assert _PALETTE[tuple(pixels[at : at + 3])] == cell

    def test_deterministic(self):
        d1 = build_diagram(fractal(), parse_observable("Z@0"), 20)
        d2 = build_diagram(fractal(), parse_observable("Z@0"), 20)
        assert emit(d1, "ppm") == emit(d2, "ppm")
        assert emit(d1, "ascii") == emit(d2, "ascii")

    def test_fractal_golden_hashes(self):
        d = build_diagram(fractal(), parse_observable("Z@0"), 128)
        assert hashlib.sha256(emit(d, "ascii")).hexdigest() == FRACTAL_128_ASCII_SHA256
        assert hashlib.sha256(emit(d, "ppm")).hexdigest() == FRACTAL_128_PPM_SHA256

    @pytest.mark.parametrize(
        "t, literal, steps", [(glider(), "YX@0", 9), (fractal(), "ZX@-3", 7)]
    )
    def test_ppm_matches_per_cell_writer(self, t, literal, steps):
        d = build_diagram(t, parse_observable(literal), steps)
        assert set("".join(d.rows)) == set("1XYZ")
        assert emit(d, "ppm") == _ppm_per_cell(d)

    def test_ppm_rejects_unknown_letter(self):
        d = SpaceTimeDiagram(rows=("1X", "QZ"), window=(0, 1))
        with pytest.raises(ValueError):
            emit(d, "ppm")

    def test_unknown_format(self):
        d = SpaceTimeDiagram(rows=("1",), window=(0, 0))
        with pytest.raises(ValueError):
            emit(d, "svg")
