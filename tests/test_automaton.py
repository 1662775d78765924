import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as hst

from cqcalab import automaton
from cqcalab.automaton import (
    ColumnsNotCoprime,
    CqcaMatrix,
    DetNotMonomial,
    DetOddShift,
    EntriesNotSymmetric,
    Fractal,
    Glider,
    Periodic,
    PureShift,
    _random_symmetric_poly,
    center,
    classify,
    fractal,
    glider,
    identity,
    parse_matrix_file,
    period,
    random_cqca,
    resolve_matrix,
    shear,
    swap,
    upper_shear,
    validate,
)
from cqcalab.laurent import LaurentPoly, PolySyntaxError, parse_poly
from cqcalab.phase_space import (
    PhaseVector,
    parse_observable,
    pauli_to_phase_space,
    symplectic_form,
)

from oracles import matmul_terms, matrix_terms, matvec_terms, to_terms


def M(t11, t12, t21, t22):
    return CqcaMatrix.from_strings(t11, t12, t21, t22)


PERIOD3 = M("0", "1", "1", "1")

random_automata = hst.builds(
    random_cqca,
    seed=hst.integers(min_value=0, max_value=10**9),
    word_length=hst.integers(min_value=0, max_value=6),
    max_shear_degree=hst.integers(min_value=1, max_value=3),
)
observables = hst.builds(
    parse_observable, hst.text(alphabet="1XYZ", min_size=1, max_size=7)
)


class TestValidate:
    def test_glider(self):
        t = validate(M("0", "1", "1", "u^-1 + u"))
        assert t.class_tag == Glider(1)

    def test_fractal(self):
        t = validate(M("u^-1 + 1 + u", "1", "1", "0"))
        assert t.class_tag == Fractal()

    def test_singular(self):
        with pytest.raises(DetNotMonomial):
            validate(M("1", "1", "1", "1"))

    def test_det_odd_shift(self):
        with pytest.raises(DetOddShift):
            validate(M("u", "0", "0", "1"))

    def test_entries_not_symmetric(self):
        with pytest.raises(EntriesNotSymmetric) as err:
            validate(M("1", "0", "u", "1"))
        assert err.value.center == 0

    def test_columns_not_coprime_is_a_validation_error(self):
        # A monomial determinant already forces coprime columns (any common
        # column divisor divides the determinant), so this violation cannot
        # surface through validate; the named error stays as its contract.
        from cqcalab.automaton import CqcaValidationError

        assert issubclass(ColumnsNotCoprime, CqcaValidationError)
        assert ColumnsNotCoprime(2).column == 2

    def test_pure_shift_rejected(self):
        with pytest.raises(PureShift):
            validate(M("u", "0", "0", "u"))

    def test_identity_is_not_a_pure_shift(self):
        assert validate(M("1", "0", "0", "1")).class_tag == Periodic()

    def test_uncentred_input_is_centered(self):
        # glider shifted by two sites; det = u^4, so the centering shift is 2
        t = validate(M("0", "u^2", "u^2", "u + u^3"))
        assert t.matrix == glider().matrix


class TestCenter:
    def test_shift_matrix(self):
        assert center(M("u", "0", "0", "u"), 1) == M("1", "0", "0", "1")

    def test_centered_unchanged(self):
        g = glider().matrix
        assert center(g, 0) == g

    def test_entrywise_shift_oracle(self):
        shifted = M("0", "u^2", "u^2", "u + u^3")
        assert center(shifted, 2) == glider().matrix
        assert center(M("0", "u", "u", "1 + u^2"), 1) == glider().matrix


class TestCompose:
    def test_glider_squared(self):
        t = glider() @ glider()
        assert t.matrix == M("1", "u^-1 + u", "u^-1 + u", "1 + u^-2 + u^2")
        assert to_terms(t.trace()) == {-2, 2}
        assert t.class_tag == Glider(2)

    def test_identity_neutral(self):
        f = fractal()
        assert (f @ identity()).matrix == f.matrix

    def test_swap_involution(self):
        assert (swap() @ swap()).matrix == identity().matrix

    @given(random_automata, random_automata)
    @settings(max_examples=50, deadline=None)
    def test_against_matrix_product_oracle(self, s, t):
        product = (s @ t).matrix
        assert matrix_terms(product) == matmul_terms(
            matrix_terms(s.matrix), matrix_terms(t.matrix)
        )

    @given(random_automata, random_automata)
    @settings(max_examples=100, deadline=None)
    def test_group_closure(self, s, t):
        assert (s @ t).matrix.det() == LaurentPoly.one()


class TestApply:
    def test_x_maps_to_z(self):
        assert glider().apply(parse_observable("X")) == parse_observable("Z")

    def test_z_maps_to_zxz(self):
        assert glider().apply(parse_observable("Z")) == parse_observable("ZXZ@-1")

    def test_glider_observable_moves_left(self):
        assert glider().apply(parse_observable("ZYX@-1")) == parse_observable("ZYX@-2")

    @given(random_automata, observables)
    @settings(max_examples=100, deadline=None)
    def test_against_matvec_oracle(self, t, v):
        image = t.apply(v)
        expected = matvec_terms(
            matrix_terms(t.matrix), (to_terms(v.xi_plus), to_terms(v.xi_minus))
        )
        assert (to_terms(image.xi_plus), to_terms(image.xi_minus)) == expected


def _orbit_vectors(t, v, steps):
    return [PhaseVector.from_frame(c, base) for c, base in t.orbit(v, steps)]


def _apply_loop(t, v, steps):
    out = [v]
    for _ in range(steps):
        out.append(t.apply(out[-1]))
    return out


# Conjugating by a shear keeps the trace u^-1 + 1 + u (d = 1) but widens the
# entries to u^-4..u^4, so T v reaches farther left than the frame shift d.
WIDE_FRACTAL = shear(parse_poly("u^-2 + u^2")) @ fractal() @ shear(parse_poly("u^-2 + u^2"))


class TestOrbit:
    def test_wide_fractal_has_radius_above_trace_degree(self):
        assert WIDE_FRACTAL.trace_degree() == 1
        assert WIDE_FRACTAL.matrix.max_entry_degree() == 4

    @pytest.mark.parametrize(
        "t",
        [identity(), swap(), validate(PERIOD3), glider(), fractal(), WIDE_FRACTAL],
        ids=["identity", "swap", "period3", "glider", "fractal", "wide_fractal"],
    )
    @pytest.mark.parametrize("literal", ["1", "X@57", "Z@40", "ZYX@-60", "Y", "XZ@-7"])
    @pytest.mark.parametrize("steps", [0, 1, 2, 47])
    def test_edge_cases_match_apply(self, t, literal, steps):
        v = parse_observable(literal)
        assert _orbit_vectors(t, v, steps) == _apply_loop(t, v, steps)

    @given(
        hst.builds(
            random_cqca,
            seed=hst.integers(min_value=0, max_value=10**9),
            word_length=hst.integers(min_value=0, max_value=7),
            max_shear_degree=hst.integers(min_value=1, max_value=3),
        ),
        hst.builds(
            pauli_to_phase_space,
            hst.text(alphabet="1XYZ", min_size=1, max_size=5),
            hst.integers(min_value=-60, max_value=60),
        ),
        hst.integers(min_value=40, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_apply(self, t, v, steps):
        assert _orbit_vectors(t, v, steps) == _apply_loop(t, v, steps)

    def test_drifting_orbit_stays_narrow(self):
        # XYZ glides one site right per step, so without trimming the frames
        # would gain two zero bits below the support at every step.
        t, v = glider(), parse_observable("XYZ")
        frames = list(t.orbit(v, 1000))
        sites = [(c.bit_length() + 1) // 2 for c, _ in frames]  # each frame's width in sites
        assert max(sites) < 80
        assert PhaseVector.from_frame(*frames[-1]) == parse_observable("XYZ@1000")

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            next(glider().orbit(parse_observable("Z"), -1))


class TestClassify:
    def test_table(self):
        assert glider().class_tag == Glider(1)
        assert fractal().class_tag == Fractal()
        assert validate(PERIOD3).class_tag == Periodic()

    def test_glider_powers(self):
        t = glider()
        for k in (*range(1, 6), 4096):
            assert t.power(k).class_tag == Glider(k)

    def test_trace_zero_is_periodic(self):
        assert classify(swap().matrix) == Periodic()


def _slow_power(t, k):
    """Right-to-left square-and-multiply with full matrix products."""
    result, base = identity(), t
    while k:
        if k & 1:
            result = result @ base
        base = base @ base
        k >>= 1
    return result


def _power_by_matvec_oracle(t, k):
    """Columns of T**k: the term-set matvec applied k times to X and Z."""
    entries = matrix_terms(t.matrix)
    columns = [(frozenset({0}), frozenset()), (frozenset(), frozenset({0}))]
    for _ in range(k):
        columns = [matvec_terms(entries, column) for column in columns]
    (t11, t21), (t12, t22) = columns
    return (t11, t12), (t21, t22)


POWER_EXPONENTS = hst.integers(min_value=0, max_value=40) | hst.sampled_from(
    [2**j + d for j in range(1, 7) for d in (-1, 0, 1)]
)


class TestPower:
    @given(random_automata, POWER_EXPONENTS)
    @settings(max_examples=100, deadline=None)
    def test_against_matvec_oracle(self, t, k):
        tk = t.power(k)
        assert matrix_terms(tk.matrix) == _power_by_matvec_oracle(t, k)
        assert tk.class_tag == classify(tk.matrix)

    @pytest.mark.parametrize("k", [255, 256, 257, 1000])
    def test_builtins_against_matrix_products(self, k):
        for t in (glider(), fractal(), validate(PERIOD3), swap()):
            assert t.power(k) == _slow_power(t, k)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            glider().power(-1)


# Every bit pattern of k up to 70, and the runs of ones (2**j - 1) and zeros (2**j) up to 2**12.
KERNEL_EXPONENTS = sorted({*range(71), *(2**j + d for j in range(1, 13) for d in (-1, 0, 1))})

TRACE_CLASSES = {
    # tr = 0: T**2 = I, so a_k = 0 at every even k.
    "swap": swap,
    "identity": identity,
    "shear": lambda: shear(parse_poly("u^-2 + 1 + u^2")),
    "period3": lambda: validate(PERIOD3),  # tr = 1
    "glider": glider,  # d = 1
    "fractal": fractal,  # d = 1
}


class TestPowerMaskKernel:
    """power's int-mask square-and-multiply against full matrix products."""

    @pytest.mark.parametrize("name", TRACE_CLASSES)
    def test_trace_classes_against_matrix_products(self, name):
        t = TRACE_CLASSES[name]()
        for k in KERNEL_EXPONENTS:
            assert t.power(k) == _slow_power(t, k), k

    @pytest.mark.parametrize("name", TRACE_CLASSES)
    def test_class_tag_read_off_the_trace(self, name):
        # power tags T**k by tr(T**k) = a_k*tr, not by classifying the matrix it built.
        t = TRACE_CLASSES[name]()
        for k in KERNEL_EXPONENTS:
            tk = t.power(k)
            assert tk.class_tag == classify(tk.matrix), k

    @given(random_automata, hst.data())
    @settings(max_examples=50, deadline=None)
    def test_random_automata_against_matrix_products(self, t, data):
        # T**k spans about 2k*d sites; the bound keeps the reference's wide products cheap.
        k = data.draw(hst.sampled_from([k for k in KERNEL_EXPONENTS if k * max(t.trace_degree(), 1) <= 4097]))
        assert t.power(k) == _slow_power(t, k)

    @pytest.mark.parametrize("name", ["fractal", "glider", "period3", "swap", "random"])
    def test_apply_of_powers_against_matvec_oracle(self, name):
        t = random_cqca(0, 3, 2) if name == "random" else TRACE_CLASSES[name]()
        vectors = [parse_observable(text) for text in ("Z", "X", "XYZ@-4", "Y1Z@7")]
        for k in (0, 1, 2, 3, 255, 256, 1023, 4096, 4097):
            tk = t.power(k)
            for v in vectors:
                image = tk.apply(v)
                expected = matvec_terms(matrix_terms(tk.matrix), (to_terms(v.xi_plus), to_terms(v.xi_minus)))
                assert (to_terms(image.xi_plus), to_terms(image.xi_minus)) == expected, (k, v)

    @pytest.mark.parametrize("name, period", [("swap", 2), ("shear", 2), ("period3", 3)])
    def test_huge_exponents_of_periodic_automata(self, name, period):
        # 333 squarings: the offset of a zero mask must stay put, not double with every square.
        t = TRACE_CLASSES[name]()
        for k in (10**100, 10**100 + 1, 3 * 10**100):
            assert t.power(k) == _slow_power(t, k % period)


def _period_by_search(t, cap):
    product = t.matrix
    for p in range(1, cap + 1):
        if product == identity().matrix:
            return p
        product = product @ t.matrix
    return None


class TestPeriod:
    def test_period_three(self):
        assert period(validate(PERIOD3), 10) == 3

    def test_identity(self):
        assert period(identity(), 10) == 1

    def test_glider_never_periodic(self):
        assert period(glider(), 64) is None

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            period(identity(), 0)

    @given(random_automata, hst.sampled_from([1, 2, 3, 4, 64]))
    @settings(max_examples=200, deadline=None)
    def test_against_product_search(self, t, cap):
        assert period(t, cap) == _period_by_search(t, cap)


class TestTraceDegree:
    def test_values(self):
        assert glider().trace_degree() == 1
        assert fractal().trace_degree() == 1
        assert (glider() @ glider()).trace_degree() == 2
        assert validate(PERIOD3).trace_degree() == 0
        assert swap().trace_degree() == 0


class TestRandomCqca:
    def test_shear_then_swap_is_glider(self):
        w = parse_poly("u^-1 + u")
        assert (shear(w) @ swap()).matrix == glider().matrix

    def test_empty_word(self):
        assert random_cqca(7, 0, 2).matrix == identity().matrix

    def test_deterministic_per_seed(self):
        assert random_cqca(42, 5, 2) == random_cqca(42, 5, 2)

    def test_always_validates(self):
        for seed in range(1000):
            t = random_cqca(seed, 5, 2)
            revalidated = validate(t.matrix)
            assert revalidated.matrix == t.matrix
            assert revalidated.class_tag == t.class_tag

    @pytest.mark.parametrize("word_length", [0, 1, 3, 6])
    def test_matches_the_validated_chain(self, word_length):
        for seed in range(3000):
            assert random_cqca(seed, word_length, 2) == _validated_chain(seed, word_length, 2), seed

    def test_validates_the_word_once(self):
        with mock.patch.object(automaton, "validate", wraps=validate) as spy:
            t = random_cqca(0, 6, 2)
        (word,), _ = spy.call_args
        assert spy.call_count == 1 and type(word) is CqcaMatrix and t == validate(word)

    @pytest.mark.parametrize("seed, word_length, text", [
        (0, 0, "ValidatedCqca(matrix=CqcaMatrix(t11=LaurentPoly('1'), t12=LaurentPoly('0'), t21=LaurentPoly('0'), "
               "t22=LaurentPoly('1')), class_tag=Periodic())"),
        (0, 1, "ValidatedCqca(matrix=CqcaMatrix(t11=LaurentPoly('1'), t12=LaurentPoly('0'), "
               "t21=LaurentPoly('u^-2 + 1 + u^2'), t22=LaurentPoly('1')), class_tag=Periodic())"),
        (0, 3, "ValidatedCqca(matrix=CqcaMatrix(t11=LaurentPoly('u^-2 + u^-1 + u + u^2'), "
               "t12=LaurentPoly('u^-2 + u^-1 + 1 + u + u^2'), t21=LaurentPoly('u^-4 + u^-3 + u^-2 + 1 + u^2 + u^3 + u^4'), "
               "t22=LaurentPoly('u^-4 + u^-3 + u^3 + u^4')), class_tag=Fractal())"),
        (0, 6, "ValidatedCqca(matrix=CqcaMatrix(t11=LaurentPoly('u^-4 + u^-3 + u^3 + u^4'), "
               "t12=LaurentPoly('u^-6 + u^-5 + 1 + u^5 + u^6'), "
               "t21=LaurentPoly('u^-6 + u^-5 + u^-4 + u^-3 + u^-1 + 1 + u + u^3 + u^4 + u^5 + u^6'), "
               "t22=LaurentPoly('u^-8 + u^-7 + u^-6 + u^-5 + u^-3 + u^3 + u^5 + u^6 + u^7 + u^8')), class_tag=Fractal())"),
        (2999, 6, "ValidatedCqca(matrix=CqcaMatrix(t11=LaurentPoly('u^-1 + u'), t12=LaurentPoly('1'), "
                  "t21=LaurentPoly('1'), t22=LaurentPoly('0')), class_tag=Glider(speed=1))"),
    ])
    def test_pinned_reprs(self, seed, word_length, text):
        assert repr(random_cqca(seed, word_length, 2)) == text


def _validated_chain(seed, word_length, max_shear_degree):
    """random_cqca's word as a chain of validated factors, each product classified, as first written."""
    rng = random.Random(seed)
    result = identity()
    for _ in range(word_length):
        kind = rng.randrange(3)
        if kind == 0:
            factor = swap()
        else:
            p = _random_symmetric_poly(rng, max_shear_degree)
            factor = shear(p) if kind == 1 else upper_shear(p)
        result = result @ factor
    return result


class TestGroupProperties:
    @given(random_automata, observables, observables)
    @settings(max_examples=100, deadline=None)
    def test_symplectic_preservation(self, t, a, b):
        assert symplectic_form(t.apply(a), t.apply(b)) == symplectic_form(a, b)

    @given(random_automata, observables, observables)
    @settings(max_examples=100, deadline=None)
    def test_linearity(self, t, a, b):
        assert t.apply(a + b) == t.apply(a) + t.apply(b)

    @given(random_automata)
    @settings(max_examples=100, deadline=None)
    def test_cayley_hamilton(self, t):
        squared = (t @ t).matrix
        tr = t.trace()
        ident = identity().matrix
        total = CqcaMatrix(
            squared.t11 + tr * t.matrix.t11 + ident.t11,
            squared.t12 + tr * t.matrix.t12 + ident.t12,
            squared.t21 + tr * t.matrix.t21 + ident.t21,
            squared.t22 + tr * t.matrix.t22 + ident.t22,
        )
        assert all(p.is_zero for p in total.entries())

    @given(random_automata)
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, t):
        assert (t @ t.inverse()).matrix == identity().matrix


class TestMatrixSources:
    def test_builtin_names(self):
        assert resolve_matrix("glider").matrix == glider().matrix
        assert resolve_matrix("fractal").matrix == fractal().matrix
        assert resolve_matrix("identity").matrix == identity().matrix
        assert resolve_matrix("swap").matrix == swap().matrix

    def test_shear_name(self):
        assert resolve_matrix("shear:u^-1 + u").matrix == shear(parse_poly("u^-1 + u")).matrix

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "glider.cqca"
        path.write_text("# the glider rule\nt11 0\nt12 1\nt21 1\nt22 u^-1 + u\n")
        assert resolve_matrix(str(path)).matrix == glider().matrix

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            parse_matrix_file("t11 0\nt12 1\nt21 1\n")

    def test_syntax_errors_name_the_entry(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_matrix_file("t11 0\nt12 1 +\nt21 1\nt22 u^-1 + u\n")
        assert (str(err.value), err.value.position) == ("t12: expected a term, found None (at position 3)", 3)
        with pytest.raises(PolySyntaxError) as err:
            CqcaMatrix.from_strings("0", "1", "1", "u^-1 + v")
        assert (str(err.value), err.value.position) == ("t22: expected a term, found 'v' (at position 7)", 7)

    def test_upper_shear_builtin(self):
        t = upper_shear(parse_poly("1"))
        assert t.matrix == M("1", "1", "0", "1")
