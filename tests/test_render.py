import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as hst

from cqcalab import render
from cqcalab.automaton import CqcaMatrix, fractal, glider, identity, random_cqca, swap, validate
from cqcalab.phase_space import parse_observable
from cqcalab.render import SpaceTimeDiagram, build_diagram, emit, emit_chunks

import oracles

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


def per_cell(t, literal, steps, format):
    """The oracle's diagram of the same automaton and observable."""
    v = parse_observable(literal)
    vector = (oracles.to_terms(v.xi_plus), oracles.to_terms(v.xi_minus))
    return oracles.diagram_per_cell(oracles.matrix_terms(t.matrix), vector, steps, format)


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
        d = SpaceTimeDiagram(packed=b"\0\0", window=(0, 0))
        assert (d.width, d.height, d.rows) == (1, 1, ("1",))
        assert emit(d, "ascii") == b".\n"
        assert emit(d, "ppm") == b"P6\n1 1\n255\n\xff\xff\xff"

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
        assert emit(d, "ppm") == per_cell(t, literal, steps, "ppm")

    def test_constructor_rejects_partial_rows(self):
        # A row of w sites is 2 * ceil(w / 8) bytes; an empty window has no rows.
        for packed, window in [(b"\0" * 3, (0, 1)), (b"\0" * 6, (0, 8)), (b"", (1, 0))]:
            with pytest.raises(ValueError):
                SpaceTimeDiagram(packed, window)
        assert SpaceTimeDiagram(b"\0" * 8, (0, 8)).height == 2

    def test_unknown_format(self):
        d = SpaceTimeDiagram(packed=b"\0\0", window=(0, 0))
        with pytest.raises(ValueError):
            emit(d, "svg")
        with pytest.raises(ValueError, match="svg"):
            emit_chunks(d, "svg")  # at the call, before any chunk is asked for


def assert_streams(d, expected):
    """At block sizes around one row, the chunks join to ``expected[format]`` and split at row ends.

    The sizes are one packed byte, three, one byte either side of a row, a byte over two rows
    (so an odd height ends in a part block), and more than the buffer.
    """
    for block in (1, 3, d.row_bytes - 1, d.row_bytes + 1, 2 * d.row_bytes + 1, len(d.packed) + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(render, "_BLOCK", block)
            per_block = max(1, block // d.row_bytes)
            for format, want in expected.items():
                chunks = list(emit_chunks(d, format))
                assert b"".join(chunks) == emit(d, format) == want, (block, format)
                if format == "ppm":
                    header, *chunks = chunks
                    assert header == f"P6\n{d.width} {d.height}\n255\n".encode()
                row = d.width + 1 if format == "ascii" else 3 * d.width
                assert [len(chunk) for chunk in chunks] == [
                    row * min(per_block, d.height - k) for k in range(0, d.height, per_block)
                ], (block, format)


class TestBlocks:
    """emit_chunks yields whole rows per block, and its blocks join to emit's and the oracle's bytes."""

    def test_one_by_one(self):
        d = SpaceTimeDiagram(packed=b"\0\0", window=(0, 0))
        assert_streams(d, {"ascii": b".\n", "ppm": b"P6\n1 1\n255\n\xff\xff\xff"})

    def test_one_site_wide_column(self):
        d = SpaceTimeDiagram(packed=bytes((1, 0, 2, 0, 3, 0, 0, 0)), window=(5, 5))
        pixels = b"\xff\0\0" + b"\0\0\xff" + b"\0\xff\0" + b"\xff\xff\xff"
        assert_streams(d, {"ascii": b"X\nZ\nY\n.\n", "ppm": b"P6\n1 4\n255\n" + pixels})

    @pytest.mark.parametrize("t, literal, steps", [(glider(), "YX@-3", 150), (fractal(), "Z@0", 70)])
    def test_named_cases(self, t, literal, steps):
        d = build_diagram(t, parse_observable(literal), steps)
        assert_streams(d, {f: per_cell(t, literal, steps, f) for f in ("ascii", "ppm")})

    def test_row_wider_than_one_block(self):
        # 4 * _BLOCK + 9 sites make a row of _BLOCK + 4 packed bytes, so each block is one row.
        literal = "Y" + "1" * (4 * render._BLOCK + 5) + "Z@-3"
        d = build_diagram(swap(), parse_observable(literal), 2)
        assert d.row_bytes > render._BLOCK
        for format in ("ascii", "ppm"):
            chunks = list(emit_chunks(d, format))
            assert len(chunks) == d.height + (format == "ppm")
            assert b"".join(chunks) == per_cell(swap(), literal, 2, format)

    @given(
        hst.builds(
            random_cqca,
            seed=hst.integers(min_value=0, max_value=10**9),
            word_length=hst.integers(min_value=0, max_value=5),
            max_shear_degree=hst.integers(min_value=1, max_value=2),
        ),
        hst.text(alphabet="1XYZ", min_size=1, max_size=6),
        hst.integers(min_value=-9, max_value=9),
        hst.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_automata(self, t, letters, offset, steps):
        literal = f"{letters}@{offset}"
        d = build_diagram(t, parse_observable(literal), steps)
        assert_streams(d, {f: per_cell(t, literal, steps, f) for f in ("ascii", "ppm")})


# Trace 1, so T**2 = T + I and T**3 = I: a periodic automaton of period 3.
PERIODIC = validate(CqcaMatrix.from_strings("0", "1", "1", "1"))


class TestPerCellOracle:
    """emit(build_diagram(...)) equals the per-cell oracle, byte for byte, in both formats."""

    @pytest.mark.parametrize("format", ["ascii", "ppm"])
    @pytest.mark.parametrize(
        "t, literal, steps",
        [
            (glider(), "X@0", 1),
            (fractal(), "ZYX@-1", 1),
            (identity(), "1", 1),
            (PERIODIC, "XY1Z@2", 7),
            (swap(), "X1Z@-5", 3),
            (glider(), "YX@-3", 150),
            # A right-moving glider: the orbit drops the zero words below its frames.
            (glider(), "XYZ@-5", 150),
            (fractal(), "Z@0", 70),
        ],
    )
    def test_named_cases(self, t, literal, steps, format):
        d = build_diagram(t, parse_observable(literal), steps)
        assert emit(d, format) == per_cell(t, literal, steps, format)

    @pytest.mark.parametrize("width", range(8, 16))
    def test_every_width_mod_8(self, width):
        literal = "Y" + "1" * (width - 4) + "Z@-3"
        for t, steps in ((identity(), 1), (swap(), 2)):
            d = build_diagram(t, parse_observable(literal), steps)
            assert d.width == width
            for format in ("ascii", "ppm"):
                assert emit(d, format) == per_cell(t, literal, steps, format)

    def test_random_automata(self):
        widths = set()
        for seed in range(60):
            rng = random.Random(seed)
            t = random_cqca(seed, rng.randint(0, 5), 2)
            literal = "".join(rng.choice("1XYZ") for _ in range(rng.randint(1, 5)))
            literal += f"@{rng.randint(-9, 9)}"
            steps = rng.randint(1, 9)
            d = build_diagram(t, parse_observable(literal), steps)
            widths.add(d.width % 8)
            for format in ("ascii", "ppm"):
                assert emit(d, format) == per_cell(t, literal, steps, format), (seed, literal, steps)
        assert widths == set(range(8))


@pytest.mark.parametrize(
    "t, literal, steps, format", [(glider(), "X@-40", 1024, "ascii"), (fractal(), "Z@0", 512, "ppm")]
)
def test_peak_memory_at_most_two_and_a_half_outputs(t, literal, steps, format):
    v = parse_observable(literal)
    tracemalloc.start()
    try:
        data = emit(build_diagram(t, v, steps), format)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(data)
