import pytest
from hypothesis import given, settings, strategies as hst

from cqcalab.laurent import LaurentPoly, parse_poly
from cqcalab.phase_space import (
    PhaseVector,
    format_observable,
    letter_rows,
    parse_int,
    parse_observable,
    pauli_to_phase_space,
    phase_space_to_pauli,
    site_letters,
    symplectic_form,
)

from oracles import from_terms, scalar_product_terms, to_terms

letters = hst.text(alphabet="1XYZ", min_size=1, max_size=9)
vectors = hst.builds(
    pauli_to_phase_space, letters, hst.integers(min_value=-6, max_value=6)
)


def P(text):
    return parse_poly(text)


class TestEncoding:
    def test_glider_image_of_z(self):
        v = pauli_to_phase_space("ZXZ", -1)
        assert v == PhaseVector(P("1"), P("u^-1 + u"))

    def test_four_letter_string(self):
        v = pauli_to_phase_space("XYZX", -1)
        assert v == PhaseVector(P("u^-1 + 1 + u^2"), P("1 + u"))

    def test_identity_factor_leaves_a_gap(self):
        v = pauli_to_phase_space("X1Z", 0)
        assert v == PhaseVector(P("1"), P("u^2"))

    def test_identity(self):
        assert pauli_to_phase_space("1", 0) == PhaseVector.zero()

    def test_illegal_letter(self):
        with pytest.raises(ValueError):
            pauli_to_phase_space("XQZ", 0)

    @pytest.mark.parametrize(
        "word, letter, index",
        [("XqZ", "q", 1), ("X Z", " ", 1), ("X\u0661", "\u0661", 1), ("x", "x", 0), ("XYZ1Yx", "x", 5)],
    )
    def test_first_illegal_letter_and_its_index(self, word, letter, index):
        with pytest.raises(ValueError) as err:
            pauli_to_phase_space(word, 3)
        assert str(err.value) == f"illegal Pauli letter {letter!r} at index {index}"

    def test_empty_word(self):
        with pytest.raises(ValueError) as err:
            pauli_to_phase_space("", 0)
        assert str(err.value) == "empty Pauli string"

    @given(hst.text(alphabet="1XYZ", min_size=1, max_size=200), hst.integers(min_value=-100, max_value=100))
    def test_against_term_sets(self, word, offset):
        sites = [(offset + k, letter) for k, letter in enumerate(word)]
        v = pauli_to_phase_space(word, offset)
        assert v.xi_plus == from_terms(s for s, letter in sites if letter in "XY")
        assert v.xi_minus == from_terms(s for s, letter in sites if letter in "ZY")

    def test_decode_glider_image(self):
        assert phase_space_to_pauli(PhaseVector(P("1"), P("u^-1 + u"))) == ("ZXZ", -1)

    def test_decode_shifted_glider(self):
        v = PhaseVector(P("u^-1 + 1"), P("u^-2 + u^-1"))
        assert phase_space_to_pauli(v) == ("ZYX", -2)

    def test_decode_identity(self):
        assert phase_space_to_pauli(PhaseVector.zero()) == ("1", 0)

    @given(letters, hst.integers(min_value=-6, max_value=6))
    def test_round_trip(self, text, offset):
        v = pauli_to_phase_space(text, offset)
        decoded_letters, decoded_offset = phase_space_to_pauli(v)
        assert pauli_to_phase_space(decoded_letters, decoded_offset) == v
        # canonical strings: no leading or trailing identity factor
        if decoded_letters != "1":
            assert decoded_letters[0] != "1" and decoded_letters[-1] != "1"


# Components drawn apart, zero ones and negative lowest sites included.
components = hst.one_of(
    hst.just(LaurentPoly.zero()),
    hst.builds(
        LaurentPoly,
        hst.integers(min_value=1, max_value=1 << 200),
        hst.integers(min_value=-300, max_value=300),
    ),
)


class TestFrame:
    def test_identity_is_the_zero_frame(self):
        assert PhaseVector.zero().frame() == (0, 0)
        assert PhaseVector.from_frame(0, -7) == PhaseVector.zero()

    def test_one_site_codes(self):
        # Site base + k holds its code x | z << 1 at bits 2k and 2k + 1: X1ZY@-3 -> 1, 0, 2, 3.
        assert parse_observable("X1ZY@-3").frame() == (0b11_10_00_01, -3)

    @given(components, components)
    def test_round_trip(self, x, z):
        v = PhaseVector(x, z)
        c, base = v.frame()
        assert PhaseVector.from_frame(c, base) == v
        if c:
            lo, hi = v.support()
            assert base == lo and (c.bit_length() + 1) // 2 == hi - lo + 1
            assert [(c >> 2 * k) & 3 for k in range(hi - lo + 1)] == [
                "1XZY".index(v.letter_at(site)) for site in range(lo, hi + 1)
            ]

    @given(hst.binary(max_size=4096), hst.binary(max_size=4096),
           hst.integers(min_value=-300, max_value=300), hst.integers(min_value=-300, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_wide_round_trip(self, x, z, x_lo, z_lo):
        # Components of up to 4 KB: frame spreads each by spread_bits, from_frame splits the digits.
        v = PhaseVector(LaurentPoly(int.from_bytes(x, "little"), x_lo), LaurentPoly(int.from_bytes(z, "little"), z_lo))
        c, base = v.frame()
        assert PhaseVector.from_frame(c, base) == v
        width = c.bit_length() // 2 + 1
        x_bits, z_bits = (format(p.coefficients(base, width), f"0{width}b") for p in (v.xi_plus, v.xi_minus))
        assert c == int("".join(zd + xd for zd, xd in zip(z_bits, x_bits)), 2)  # bits 2k, 2k + 1: site base + k

    @given(components, components, hst.integers(min_value=0, max_value=70))
    def test_from_frame_reads_any_base(self, x, z, pad):
        # Orbit frames are not normalised: zero sites may sit below the support.
        v = PhaseVector(x, z)
        c, base = v.frame()
        assert PhaseVector.from_frame(c << 2 * pad, base - pad) == v


class TestSymplecticForm:
    def test_same_site_x_z_anticommute(self):
        x = pauli_to_phase_space("X", 0)
        z = pauli_to_phase_space("Z", 0)
        assert symplectic_form(x, z) == 1

    def test_disjoint_support_commutes(self):
        assert symplectic_form(pauli_to_phase_space("X", 0), pauli_to_phase_space("Z", 1)) == 0

    def test_translates_of_stabilizer_generator_commute(self):
        a = pauli_to_phase_space("ZXZ", -1)
        b = pauli_to_phase_space("ZXZ", 0)
        assert symplectic_form(a, b) == 0

    @given(vectors, vectors)
    def test_against_scalar_product_oracle(self, a, b):
        expected = (
            scalar_product_terms(to_terms(a.xi_plus), to_terms(b.xi_minus))
            ^ scalar_product_terms(to_terms(a.xi_minus), to_terms(b.xi_plus))
        )
        assert symplectic_form(a, b) == expected

    @given(vectors, vectors)
    def test_symmetric_and_alternating(self, a, b):
        assert symplectic_form(a, b) == symplectic_form(b, a)
        assert symplectic_form(a, a) == 0

    @given(vectors, vectors, vectors)
    def test_bilinear(self, a, b, c):
        assert symplectic_form(a + b, c) == (
            symplectic_form(a, c) ^ symplectic_form(b, c)
        )


class TestCompose:
    def test_paper_decomposition(self):
        v = (
            pauli_to_phase_space("Z", -1)
            + pauli_to_phase_space("Y", 0)
            + pauli_to_phase_space("X", 1)
        )
        assert v == PhaseVector(P("1 + u"), P("u^-1 + 1"))

    @given(vectors)
    def test_involution(self, a):
        assert a + a == PhaseVector.zero()

    def test_x_times_z_is_y(self):
        v = pauli_to_phase_space("X", 0) + pauli_to_phase_space("Z", 0)
        assert v == pauli_to_phase_space("Y", 0)


class TestLiteralFormat:
    def test_parse_with_offset(self):
        assert parse_observable("ZYX@-1") == pauli_to_phase_space("ZYX", -1)
        assert parse_observable("ZYX@+3") == pauli_to_phase_space("ZYX", 3)

    def test_default_offset(self):
        assert parse_observable("ZXZ") == pauli_to_phase_space("ZXZ", 0)

    def test_format(self):
        assert format_observable(pauli_to_phase_space("ZYX", -2)) == "ZYX@-2"
        assert format_observable(PhaseVector.zero()) == "1"

    def test_bad_offset(self):
        with pytest.raises(ValueError):
            parse_observable("ZXZ@q")

    @pytest.mark.parametrize("text", ["+-3", "-+3", "--3", "++3"])
    def test_parse_int_takes_one_optional_sign(self, text):
        with pytest.raises(ValueError) as err:
            parse_int(text)
        assert str(err.value) == f"invalid integer {text!r}"

    @pytest.mark.parametrize("offset", ["\u0663", "\uff13", "1_0", " 3", "--3", "+", ""])
    def test_offset_is_an_optional_sign_and_ascii_digits(self, offset):
        with pytest.raises(ValueError, match="bad observable offset"):
            parse_observable(f"ZXZ@{offset}")


class TestLetters:
    """``letters`` builds a row from the bitsets; ``letter_at`` is the per-site reference."""

    @given(
        hst.one_of(hst.just(PhaseVector.zero()), vectors),
        hst.integers(min_value=-20, max_value=20),
        hst.integers(min_value=1, max_value=30),
    )
    def test_against_letter_at(self, v, lo, width):
        hi = lo + width - 1
        assert v.letters(lo, hi) == "".join(v.letter_at(s) for s in range(lo, hi + 1))

    @pytest.mark.parametrize("width", [0, 1, 8, 9, 64, 65, 1024])
    @given(data=hst.data())
    def test_site_letters_at_byte_and_word_edges(self, width, data):
        masks = hst.integers(min_value=0, max_value=(1 << width) - 1)
        x, z = data.draw(masks), data.draw(masks)
        v = PhaseVector(LaurentPoly(x), LaurentPoly(z))
        assert site_letters(x, z, width) == "".join(v.letter_at(s) for s in range(width))

    @pytest.mark.parametrize("width", [0, 1, 3, 7, 8, 9, 63, 64, 65, 1024])
    @given(data=hst.data())
    def test_letter_rows_against_site_letters(self, width, data):
        # Rows of a block share one int per side: each must stay within its own bytes.
        masks = hst.integers(min_value=0, max_value=(1 << width) - 1)
        rows = data.draw(hst.lists(hst.tuples(masks, masks), max_size=9))
        got = letter_rows([x for x, _ in rows], [z for _, z in rows], width)
        assert got == [site_letters(x, z, width) for x, z in rows]
        for (x, z), row in zip(rows, got[:2]):
            v = PhaseVector(LaurentPoly(x), LaurentPoly(z))
            assert row == "".join(v.letter_at(s) for s in range(width))

    def test_letter_rows_of_full_and_empty_rows(self):
        full = (1 << 12) - 1
        assert letter_rows([full, 0, full, 0], [0, full, full, 0], 12) == ["X" * 12, "Z" * 12, "Y" * 12, "1" * 12]
        assert letter_rows([], [], 5) == []

    def test_windows_cutting_the_support(self):
        v = pauli_to_phase_space("ZYX1Z", -3)  # sites -3..1
        assert v.letters(-5, 3) == "11ZYX1Z11"
        assert v.letters(-2, 0) == "YX1"
        assert v.letters(-1, 4) == "X1Z111"
        assert v.letters(-7, -4) == "1111"
        assert v.letters(0, 0) == "1"


class TestRestriction:
    def test_restrict_to_right_half(self):
        v = pauli_to_phase_space("ZXZ", -1)
        assert v.restricted(lo=0) == pauli_to_phase_space("XZ", 0)

    def test_shift(self):
        v = pauli_to_phase_space("ZXZ", -1)
        assert v.shifted(3) == pauli_to_phase_space("ZXZ", 2)

    @given(vectors, hst.integers(min_value=-15, max_value=15))
    def test_restrict_against_term_sets(self, v, lo):
        def kept(p):
            return from_terms(e for e in to_terms(p) if e >= lo)

        assert v.restricted(lo) == PhaseVector(kept(v.xi_plus), kept(v.xi_minus))

    def test_dg_takes_widest_component(self):
        v = PhaseVector(P("u^-2 + u^2"), P("1"))
        assert v.support() == (-2, 2)
        assert PhaseVector.zero().support() is None
