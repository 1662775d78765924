import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as hst

from cqcalab.laurent import (
    MAX_EXPONENT_SPAN,
    LaurentPoly,
    PolySyntaxError,
    clmul,
    coefficient_dot,
    gcd,
    parse_poly,
    render_poly,
    spread_bits,
)

from oracles import (
    convolve_terms,
    from_terms,
    reflect_terms,
    remainder_terms,
    to_terms,
    xor_terms,
)

polys = hst.builds(
    LaurentPoly,
    mask=hst.integers(min_value=0, max_value=(1 << 24) - 1),
    min_exp=hst.integers(min_value=-12, max_value=12),
)

wide_polys = hst.builds(
    LaurentPoly,
    mask=hst.integers(min_value=0, max_value=1 << 700),
    min_exp=hst.integers(min_value=-400, max_value=400),
)

# Every polynomial with stored span <= 4, over a few offsets.
SMALL_POLYS = [
    LaurentPoly(mask, min_exp)
    for mask in range(16)
    for min_exp in (-2, 0, 1)
    if mask or min_exp == 0
]


def P(text: str) -> LaurentPoly:
    return parse_poly(text)


# Every parse_poly error: the message and the position in the original text.
SYNTAX_ERRORS = {
    "": ("empty polynomial", 0),
    "   ": ("empty polynomial", 0),
    "0 + u": ("unexpected input after '0'", 2),
    "0 + 1": ("unexpected input after '0'", 2),
    "u +": ("expected a term, found None", 3),
    "1 + ": ("expected a term, found None", 4),
    "u + 0": ("expected a term, found '0'", 4),
    "+u": ("expected a term, found '+'", 0),
    "v": ("expected a term, found 'v'", 0),
    "u^": ("expected an integer exponent", 2),
    "u^-": ("expected an integer exponent", 3),
    "u^+-3": ("expected an integer exponent", 3),
    "u^x": ("expected an integer exponent", 2),
    "1u": ("expected '+', found 'u'", 1),
    "u 1": ("expected '+', found '1'", 2),
    "1 1": ("expected '+', found '1'", 2),
}


class TestParseRender:
    def test_glider_trace(self):
        assert to_terms(P("u^-1 + u")) == {-1, 1}

    def test_zero(self):
        assert P("0").is_zero

    def test_duplicate_terms_cancel(self):
        assert P("u + u").is_zero
        assert P("u + 1 + u") == LaurentPoly.one()

    def test_whitespace_ignored(self):
        assert P(" u^-2+1 +u ") == LaurentPoly.from_exponents([-2, 0, 1])
        # even inside an exponent
        assert P("u^1 2") == LaurentPoly(1, 12)
        assert P("u ^ - 3") == LaurentPoly(1, -3)

    def test_signed_exponent_with_plus(self):
        assert P("u^+3") == LaurentPoly(1, 3)

    @pytest.mark.parametrize("bad", list(SYNTAX_ERRORS))
    def test_syntax_errors_carry_position(self, bad):
        message, position = SYNTAX_ERRORS[bad]
        with pytest.raises(PolySyntaxError) as err:
            P(bad)
        assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)

    @pytest.mark.parametrize("bad, position", [("u^\u00b2", 2), ("1 + u^\u0663", 6), ("u^-\u00b2", 3)])
    def test_exponent_takes_only_ascii_digits(self, bad, position):
        # str.isdigit accepts the superscript two and the Arabic-Indic three.
        with pytest.raises(PolySyntaxError, match="expected an integer exponent") as err:
            P(bad)
        assert err.value.position == position

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="int() has no digit limit")
    def test_too_long_exponent_is_a_syntax_error(self):
        # One digit past int()'s limit: a PolySyntaxError at the first digit, not int()'s ValueError.
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(PolySyntaxError) as err:
            P(f"1 + u ^ -{digits}")
        assert (str(err.value), err.value.position) == ("exponent has too many digits (at position 9)", 9)

    @pytest.mark.parametrize("lowest", [0, -MAX_EXPONENT_SPAN // 2, 10**30])
    def test_span_budget(self, lowest):
        # At the budget the mask is 2**20 + 1 bits; one past it, the error comes before any mask.
        def parse_traced(text):
            tracemalloc.start()
            try:
                return parse_poly(text), tracemalloc.get_traced_memory()[1]
            except PolySyntaxError as exc:
                return exc, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        top = lowest + MAX_EXPONENT_SPAN
        p, peak = parse_traced(f"u^{lowest} + u^{lowest + 1} + u^{top}")
        assert p == LaurentPoly.from_exponents([lowest, lowest + 1, top]) and p.degree_span() == (lowest, top)
        assert peak < 1 << 20  # a few copies of the 128 KiB mask
        exc, peak = parse_traced(f"u^{lowest} + u^{top + 1} + u^{lowest + 1}")
        assert str(exc) == f"exponents span {MAX_EXPONENT_SPAN + 1}, more than {MAX_EXPONENT_SPAN} " \
                           f"(at position {len(f'u^{lowest} + ')})"
        assert peak < 1 << 14

    def test_span_budget_counts_every_term(self):
        # Each term stays within the budget of the first; the third widens the span past it.
        text = f"u^{MAX_EXPONENT_SPAN // 2} + 1 + u^-{MAX_EXPONENT_SPAN // 2 + 1}"
        with pytest.raises(PolySyntaxError) as err:
            parse_poly(text)
        assert err.value.position == text.index("u^-")

    def test_render_style(self):
        assert render_poly(P("u + u^-1 + 1")) == "u^-1 + 1 + u"
        assert render_poly(LaurentPoly.zero()) == "0"

    @given(polys)
    def test_round_trip(self, p):
        assert parse_poly(render_poly(p)) == p


class TestArithmetic:
    def test_add_overlapping(self):
        assert P("1 + u") + P("u + u^2") == P("1 + u^2")

    def test_add_identity(self):
        p = P("u^-3 + 1 + u^2")
        assert p + LaurentPoly.zero() == p

    def test_add_hand_xor(self):
        # (u^-1 + 1 + u) + (u^-1 + u) = 1, checked against the term-set oracle
        a, b = P("u^-1 + 1 + u"), P("u^-1 + u")
        assert to_terms(a + b) == xor_terms(to_terms(a), to_terms(b)) == {0}

    def test_mul_square_of_glider_trace(self):
        a = P("u^-1 + u")
        assert to_terms(a * a) == convolve_terms(to_terms(a), to_terms(a)) == {-2, 2}

    def test_mul_against_convolution_oracle(self):
        a, b = P("u^-1 + u"), P("u^-1 + 1")
        assert a * b == P("u^-2 + u^-1 + 1 + u")
        assert to_terms(a * b) == convolve_terms(to_terms(a), to_terms(b))

    def test_mul_identity_and_zero(self):
        p = P("u^-1 + u^4")
        assert p * LaurentPoly.one() == p
        assert (p * LaurentPoly.zero()).is_zero

    def test_addition_is_involutive(self):
        for p in SMALL_POLYS:
            assert (p + p).is_zero

    def test_ring_laws_exhaustive_small(self):
        for p, q in itertools.product(SMALL_POLYS, SMALL_POLYS):
            assert p + q == q + p
            assert p * q == q * p
        for p, q, r in itertools.product(SMALL_POLYS[:20], repeat=3):
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    @given(polys, polys, polys)
    def test_ring_laws_randomized(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys, polys)
    def test_mul_against_oracle_randomized(self, p, q):
        assert to_terms(p * q) == convolve_terms(to_terms(p), to_terms(q))

    @given(polys, polys)
    def test_mul_degree_adds(self, p, q):
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree_span()[1] == p.degree_span()[1] + q.degree_span()[1]


class TestSquaredAndPow:
    @given(polys)
    def test_squared_matches_product(self, p):
        assert p.squared() == p * p

    def test_squared_exhaustive_small(self):
        for p in SMALL_POLYS:
            assert p.squared() == p * p

    def test_squared_wide_mask(self):
        # every byte value of the translation tables, in one mask
        p = LaurentPoly(int.from_bytes(bytes(range(256)), "little") | 1, -1000)
        assert to_terms(p.squared()) == {2 * e for e in to_terms(p)}


    @given(hst.integers(min_value=0, max_value=(1 << 300) - 1))
    def test_spread_bits_is_the_carry_less_square(self, mask):
        assert spread_bits(mask) == clmul(mask, mask)

    def test_spread_bits_of_zero(self):
        assert spread_bits(0) == 0
        assert LaurentPoly.zero().squared() == LaurentPoly.zero()


def spread_per_bit(mask: int) -> int:
    """Bit k to bit 2k, one binary digit at a time: a 0 digit goes between each two."""
    return int("0".join(format(mask, "b")), 2)


class TestSpreadKernel:
    """spread_bits's one translation of the hex digits against a per-bit reference."""

    def test_every_mask_below_two_to_the_sixteen(self):
        for mask in range(1 << 16):
            assert spread_bits(mask) == spread_per_bit(mask), mask

    @pytest.mark.parametrize("n_bytes", [1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 1023, 1024, 1025, 4095, 4096])
    @pytest.mark.parametrize("top_digit", ["zero", "nonzero"])
    def test_random_masks(self, n_bytes, top_digit):
        rng = random.Random(n_bytes)
        for _ in range(4):
            mask = rng.getrandbits(8 * n_bytes - 4) | 1 << 8 * n_bytes - 5  # top hex digit 0
            if top_digit == "nonzero":
                mask |= rng.randrange(1, 16) << 8 * n_bytes - 4
            digits = mask.to_bytes(n_bytes, "big").hex()  # the digits spread_bits translates
            assert (digits[0] == "0") == (top_digit == "zero")
            assert spread_bits(mask) == spread_per_bit(mask)

    @given(hst.binary(min_size=1, max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_against_per_bit_reference(self, raw):
        mask = int.from_bytes(raw, "big")
        assert spread_bits(mask) == spread_per_bit(mask)


class TestCanonicalForm:
    """LaurentPoly(mask, e) shifts the trailing zeros of the mask into the offset, and no more."""

    @staticmethod
    def shifted_out(mask, min_exp):
        if not mask:
            return 0, 0
        while not mask & 1:
            mask, min_exp = mask >> 1, min_exp + 1
        return mask, min_exp

    @given(hst.integers(min_value=0, max_value=1 << 600),
           hst.integers(min_value=0, max_value=130),
           hst.integers(min_value=-500, max_value=500))
    def test_against_shifting_out_trailing_zeros(self, core, zeros, min_exp):
        for mask in (0, core, 2 * core + 1, (2 * core + 1) << zeros, core << zeros):
            p = LaurentPoly(mask, min_exp)
            assert (p.mask, p.min_exp) == self.shifted_out(mask, min_exp)

    @pytest.mark.parametrize("mask, min_exp, canonical", [
        (0, 7, (0, 0)), (0, -3, (0, 0)), (1, -3, (1, -3)), (5, 2, (5, 2)), (10, 2, (5, 3)),
        (1 << 100, -100, (1, 0)), ((1 << 300) + (1 << 64), 0, ((1 << 236) + 1, 64)),
    ])
    def test_zero_odd_and_even_masks(self, mask, min_exp, canonical):
        p = LaurentPoly(mask, min_exp)
        assert (p.mask, p.min_exp) == canonical
        assert p == LaurentPoly(*canonical)


class TestDegreeSpan:
    def test_glider_trace(self):
        p = P("u^-1 + u")
        assert p.degree_span() == (-1, 1)

    def test_constant(self):
        assert LaurentPoly.one().degree_span() == (0, 0)

    def test_squared_trace(self):
        p = P("u^-1 + u") * P("u^-1 + u")
        assert p.degree_span() == (-2, 2)

    def test_zero_is_sentinel(self):
        assert LaurentPoly.zero().degree_span() is None


class TestGcd:
    def test_coprime_glider_pair(self):
        assert gcd(P("u^-1 + u"), P("u^-1 + 1 + u")) == LaurentPoly.one()

    def test_idempotent_unit_normalized(self):
        p = P("u^-3 + u^-1")
        assert gcd(p, p) == P("1 + u^2")

    def test_square_factor(self):
        assert gcd(P("1 + u^2"), P("1 + u")) == P("1 + u")

    def test_gcd_with_zero(self):
        p = P("u^-2 + u")
        assert gcd(p, LaurentPoly.zero()) == P("1 + u^3")

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd(LaurentPoly.zero(), LaurentPoly.zero())

    @given(polys, polys)
    def test_gcd_divides_both(self, p, q):
        if p.is_zero and q.is_zero:
            return
        d = to_terms(gcd(p, q))
        assert not remainder_terms(to_terms(p), d)
        assert not remainder_terms(to_terms(q), d)

    @given(polys, polys, polys)
    def test_common_divisors_divide_gcd(self, d, a, b):
        if d.is_zero or (a.is_zero and b.is_zero):
            return
        assert not remainder_terms(to_terms(gcd(d * a, d * b)), to_terms(d))


class TestReflectionSymmetry:
    def test_fractal_entry(self):
        assert P("u^-1 + 1 + u").is_reflection_symmetric(0)

    def test_single_off_center_term(self):
        assert not P("u").is_reflection_symmetric(0)
        assert P("u").is_reflection_symmetric(1)

    def test_shifted_center(self):
        assert not P("1 + u").is_reflection_symmetric(0)
        assert P("1 + u^2").is_reflection_symmetric(1)

    def test_zero_symmetric_everywhere(self):
        for center in (-3, 0, 5):
            assert LaurentPoly.zero().is_reflection_symmetric(center)

    @given(polys, hst.integers(min_value=-5, max_value=5))
    def test_against_reflection_oracle(self, p, center):
        terms = to_terms(p)
        assert p.is_reflection_symmetric(center) == (
            reflect_terms(terms, center) == terms
        )


class TestCoefficients:
    @given(
        polys,
        hst.integers(min_value=-48, max_value=48),
        hst.integers(min_value=0, max_value=40),
    )
    def test_against_coefficient(self, p, lo, width):
        expected = sum(p.coefficient(lo + k) << k for k in range(width))
        assert p.coefficients(lo, width) == expected

    @given(hst.one_of(polys, wide_polys))
    def test_exponents_against_bits(self, p):
        expected = [p.min_exp + k for k in range(p.mask.bit_length()) if (p.mask >> k) & 1]
        assert list(p.exponents()) == expected

    def test_far_windows_are_empty(self):
        p = P("u^-1 + u^3")
        assert p.coefficients(-(10**9), 4) == 0
        assert p.coefficients(10**9, 4) == 0
        assert p.coefficients(-1, 5) == 0b10001


class TestCoefficientDot:
    @given(polys, polys)
    def test_against_term_oracle(self, p, q):
        assert coefficient_dot(p, q) == len(to_terms(p) & to_terms(q)) % 2


@given(hst.sets(hst.integers(min_value=-16, max_value=16)))
def test_from_exponents_round_trip(exponents):
    assert to_terms(from_terms(exponents)) == frozenset(exponents)
