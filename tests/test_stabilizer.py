import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from cqcalab.automaton import (
    CqcaMatrix,
    ValidatedCqca,
    fractal,
    glider,
    identity,
    random_cqca,
    swap,
    validate,
)
from cqcalab.phase_space import parse_observable, symplectic_form
from cqcalab.stabilizer import (
    MIN_RATE_STEPS,
    CenterIdentity,
    CommonDivisor,
    NotReflectionSymmetric,
    SingleLetterType,
    TIStabilizerState,
    all_spins_up,
    asymptotic_rate,
    entanglement_trajectory,
    evolve,
    extract_logical_pairs,
    trajectory_csv,
    tripartite_entanglement,
    validate_state,
)

from oracles import matvec_terms, matrix_terms, orbit_half_lengths, to_terms


def S(text):
    return validate_state(parse_observable(text))


PERIOD3 = validate(CqcaMatrix.from_strings("0", "1", "1", "1"))

random_automata = hst.builds(
    random_cqca,
    seed=hst.integers(min_value=0, max_value=10**9),
    word_length=hst.integers(min_value=0, max_value=5),
    max_shear_degree=hst.integers(min_value=1, max_value=2),
)


class TestValidateState:
    def test_xzx(self):
        assert S("XZX@-1").n == 1

    def test_all_spins_up(self):
        assert all_spins_up().n == 0

    def test_even_length_rejected(self):
        with pytest.raises(NotReflectionSymmetric):
            S("XX@0")

    def test_center_identity_rejected(self):
        with pytest.raises(CenterIdentity):
            S("Z1Z@-1")

    def test_single_letter_type_rejected(self):
        with pytest.raises(SingleLetterType):
            S("XXX@-1")
        with pytest.raises(SingleLetterType):
            S("YYY@-1")

    def test_common_divisor_rejected(self):
        # xi_plus = u^-1+1+u and xi_minus = its square share that divisor
        with pytest.raises(CommonDivisor) as err:
            S("ZXYXZ@-2")
        assert str(err.value.divisor) == "1 + u + u^2"

    def test_single_site_paulis_are_product_seeds(self):
        assert S("X@0").n == 0
        assert S("Z@0").n == 0


class TestEvolve:
    def test_all_up_under_glider(self):
        states = evolve(all_spins_up(), glider(), 2)
        assert [s.xi for s in states] == [
            parse_observable(o) for o in ("Z@0", "ZXZ@-1", "ZXZXZ@-2")
        ]
        assert [s.n for s in states] == [0, 1, 2]

    def test_all_up_under_fractal(self):
        states = evolve(all_spins_up(), fractal(), 2)
        assert [s.xi for s in states] == [
            parse_observable(o) for o in ("Z@0", "X@0", "XYX@-1")
        ]
        assert [s.n for s in states] == [0, 0, 1]

    def test_identity_constant(self):
        s = S("YXY@-1")
        assert all(state.xi == s.xi for state in evolve(s, identity(), 5))

    @given(random_automata, hst.integers(min_value=0, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_repeated_matvec_oracle(self, t, steps):
        states = evolve(all_spins_up(), t, steps)
        vec = (frozenset(), frozenset({0}))
        for state in states:
            assert (to_terms(state.xi.xi_plus), to_terms(state.xi.xi_minus)) == vec
            vec = matvec_terms(matrix_terms(t.matrix), vec)

    @given(random_automata, hst.sampled_from(["Z@0", "X@0", "XZX@-1", "YXY@-1"]),
           hst.integers(min_value=0, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_evolution_preserves_validity(self, t, seed, steps):
        # evolve validates only its input; the full check runs here on every state
        for state in evolve(S(seed), t, steps):
            assert validate_state(state.xi).n == state.n

    def test_invalid_input_rejected(self):
        with pytest.raises(NotReflectionSymmetric):
            evolve(TIStabilizerState(parse_observable("XX@0"), 0), glider(), 3)

    @given(random_automata)
    @settings(max_examples=100, deadline=None)
    def test_locality_bounds_growth(self, t):
        radius = t.matrix.max_entry_degree()
        states = evolve(all_spins_up(), t, 12)
        for a, b in zip(states, states[1:]):
            assert abs(b.n - a.n) <= radius


class TestClosedForms:
    def test_bipartite_examples(self):
        assert S("YXY@-1").n == 1
        assert all_spins_up().n == 0
        assert S("YXXXXXY@-3").n == 3

    def test_tripartite_examples(self):
        assert tripartite_entanglement(S("YXXXXXY@-3"), 30) == 6
        assert tripartite_entanglement(S("YXXXXXY@-3"), 4) == 4
        assert tripartite_entanglement(all_spins_up(), 17) == 0
        # L = 1, the smallest region allowed: min(2n, 1).
        for state in (all_spins_up(), S("ZXZ@-1"), S("YXXXXXY@-3")):
            assert tripartite_entanglement(state, 1) == min(2 * state.n, 1)


class TestTrajectory:
    def test_glider_from_all_up(self):
        points = entanglement_trajectory(glider(), all_spins_up(), 5)
        assert [p.e_bipartite for p in points] == [0, 1, 2, 3, 4, 5]

    def test_fractal_from_all_up(self):
        points = entanglement_trajectory(fractal(), all_spins_up(), 3)
        assert [p.e_bipartite for p in points] == [0, 0, 1, 2]

    def test_identity_constant(self):
        points = entanglement_trajectory(identity(), S("YXY@-1"), 3)
        assert [p.e_bipartite for p in points] == [1, 1, 1, 1]

    def test_csv_with_region(self):
        points = entanglement_trajectory(glider(), all_spins_up(), 2, region_length=3)
        assert trajectory_csv(points) == "t,n,E_bi,E_tri\n0,0,0,0\n1,1,1,2\n2,2,2,3\n"

    def test_csv_without_region(self):
        points = entanglement_trajectory(glider(), all_spins_up(), 1)
        assert trajectory_csv(points) == "t,n,E_bi,E_tri\n0,0,0,\n1,1,1,\n"

    def test_nonpositive_region_rejected(self):
        with pytest.raises(ValueError, match="region length must be positive"):
            entanglement_trajectory(glider(), all_spins_up(), 2, region_length=0)

    def test_streams_at_scale(self):
        # Holding every state would take O(t^2) bits: 21.9 MiB at this size.
        t, s = fractal(), all_spins_up()
        start = time.perf_counter()
        tracemalloc.start()
        try:
            points = list(entanglement_trajectory(t, s, 8192, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert peak < 4 << 20
        assert len(points) == 8193
        for k in (0, 1, 2, 3, 100, 1023, 4096, 6001, 8192):
            n = t.power(k).apply(s.xi).support()[1]
            assert points[k] == (k, n, n, min(2 * n, 64))


# Word lengths 0-7 draw constant traces (d = 0) as well as growing ones (d >= 1).
closed_form_automata = hst.one_of(
    hst.builds(
        random_cqca,
        seed=hst.integers(min_value=0, max_value=10**9),
        word_length=hst.integers(min_value=0, max_value=7),
        max_shear_degree=hst.integers(min_value=1, max_value=2),
    ),
    hst.sampled_from([identity(), swap(), PERIOD3, glider(), fractal()]),
)
trajectory_steps = hst.integers(min_value=0, max_value=300)
regions = hst.one_of(hst.none(), hst.integers(min_value=1, max_value=100))


def backward_seed(t, k):
    """T**-k YXY@-1: its n shrinks for about k steps of t before it grows."""
    return validate_state(t.inverse().power(k).apply(parse_observable("YXY@-1")))


class TestClosedFormTrajectory:
    """The closed form against n read off every orbit frame, and its transient bound."""

    @staticmethod
    def check(t, seed, steps, region):
        ns = orbit_half_lengths(t, seed.xi, steps)
        expected = [(k, n, n, None if region is None else min(2 * n, region)) for k, n in enumerate(ns)]
        assert list(entanglement_trajectory(t, seed, steps, region)) == expected
        if steps >= MIN_RATE_STEPS:
            slope = Fraction(ns[steps] - ns[steps // 2], steps - steps // 2)
            assert asymptotic_rate(t, seed, steps) == (t.trace_degree(), slope)

    @given(closed_form_automata, hst.sampled_from(["Z@0", "X@0", "XZX@-1", "YXY@-1", "YXXXXXY@-3"]),
           hst.integers(min_value=0, max_value=4), trajectory_steps, regions)
    @settings(max_examples=200, deadline=None)
    def test_evolved_seeds_match_the_per_frame_walk(self, t, literal, prep, steps, region):
        self.check(t, evolve(S(literal), t, prep)[-1], steps, region)

    @given(closed_form_automata, hst.integers(min_value=1, max_value=180), trajectory_steps, regions)
    @settings(max_examples=200, deadline=None)
    def test_backward_built_seeds_match_the_per_frame_walk(self, t, k, steps, region):
        self.check(t, backward_seed(t, k), steps, region)

    @staticmethod
    def frames_drawn(run):
        """How many orbit frames ``run()`` draws."""
        orbit, drawn = ValidatedCqca.orbit, 0

        def counting(self, v, steps):
            nonlocal drawn
            for frame in orbit(self, v, steps):
                drawn += 1
                yield frame

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ValidatedCqca, "orbit", counting)
            run()
        return drawn

    @given(closed_form_automata, hst.integers(min_value=0, max_value=180), trajectory_steps)
    @settings(max_examples=100, deadline=None)
    def test_walk_stops_after_the_transient(self, t, k, steps):
        seed, d = backward_seed(t, k), t.trace_degree()
        bound = min(steps + 1, seed.n // d + 2 if d else 3 if t.trace() else 2)
        assert self.frames_drawn(lambda: list(entanglement_trajectory(t, seed, steps))) <= bound
        if steps >= MIN_RATE_STEPS:
            assert self.frames_drawn(lambda: asymptotic_rate(t, seed, steps)) <= bound

    @pytest.mark.parametrize("m", [0, 1, 2, 17, 180])
    def test_bound_is_tight_for_glider_seeds(self, m):
        # T**-m Z has n = m - 1 (m > 0) and loses one ebit a step down to n = 0, which it holds
        # for one more step: frames 0 .. n_0 + 1 are drawn, n_0 // d + 2 with d = 1.
        t = glider()
        seed = validate_state(t.inverse().power(m).apply(all_spins_up().xi))
        assert seed.n == max(m - 1, 0)
        assert self.frames_drawn(lambda: list(entanglement_trajectory(t, seed, m + 5))) == seed.n // 1 + 2

    def test_arguments_are_checked_at_the_call(self):
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            entanglement_trajectory(glider(), all_spins_up(), -1)


class TestAsymptoticRate:
    def test_glider_exact(self):
        predicted, empirical = asymptotic_rate(glider(), all_spins_up(), 200)
        assert predicted == 1 and empirical == 1

    def test_periodic_rate_zero(self):
        predicted, empirical = asymptotic_rate(PERIOD3, all_spins_up(), 99)
        assert predicted == 0 and empirical == 0

    def test_fractal_close_to_one(self):
        predicted, empirical = asymptotic_rate(fractal(), all_spins_up(), 256)
        assert predicted == 1
        assert abs(empirical - 1) <= Fraction(1, 10)

    def test_minimum_horizon_enforced(self):
        with pytest.raises(ValueError):
            asymptotic_rate(glider(), all_spins_up(), 8)

    @given(
        random_automata,
        hst.sampled_from(["Z@0", "YXY@-1", "XZX@-1", "YXXXXXY@-3"]),
        hst.integers(min_value=0, max_value=4),
        hst.integers(min_value=16, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_jumps_match_evolve_slope(self, t, literal, prep, steps):
        # The seed is itself a few steps of t from a literal, so it need not
        # be short or symmetric in letters.
        seed = evolve(S(literal), t, prep)[-1]
        states = evolve(seed, t, steps)
        half = steps // 2
        slope = Fraction(states[steps].n - states[half].n, steps - half)
        assert asymptotic_rate(t, seed, steps) == (t.trace_degree(), slope)

    def test_invalid_seed_rejected(self):
        with pytest.raises(NotReflectionSymmetric):
            asymptotic_rate(glider(), TIStabilizerState(parse_observable("XX@0"), 0), 16)

    @given(random_automata)
    @settings(max_examples=30, deadline=None)
    def test_rate_law_randomized(self, t):
        predicted, empirical = asymptotic_rate(t, all_spins_up(), 256)
        assert abs(empirical - predicted) <= Fraction(1, 10)


class TestLogicalPairs:
    def test_zxz_cut_at_zero(self):
        pairs = extract_logical_pairs(S("ZXZ@-1"), 0)
        assert len(pairs) == 1
        xbar, zbar = pairs[0]
        assert {xbar, zbar} == {parse_observable("Z@0"), parse_observable("XZ@0")}
        assert symplectic_form(xbar, zbar) == 1

    def test_product_state_has_no_pairs(self):
        assert extract_logical_pairs(all_spins_up(), 0) == []
        assert extract_logical_pairs(all_spins_up(), 5) == []

    def test_yxy_pair_pattern(self):
        pairs = extract_logical_pairs(S("YXY@-1"), 0)
        assert len(pairs) == 1
        assert symplectic_form(*pairs[0]) == 1

    def _assert_pair_pattern(self, pairs):
        flat = [v for pair in pairs for v in pair]
        for i, a in enumerate(flat):
            for j, b in enumerate(flat):
                within = i // 2 == j // 2 and i != j
                assert symplectic_form(a, b) == (1 if within else 0)

    def test_brute_force_pair_search_agrees(self):
        # Independent route: exhaustively search products of the cut
        # restrictions for an anticommuting pair.
        s = S("YXY@-1")
        rest = [s.xi.shifted(x).restricted(lo=0) for x in range(-1, 1)]
        found = any(
            symplectic_form(a, b) for a in rest for b in rest if a != b
        )
        assert found
        self._assert_pair_pattern(extract_logical_pairs(s, 0))

    @given(random_automata, hst.integers(min_value=0, max_value=8),
           hst.integers(min_value=-5, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_pair_count_and_pattern(self, t, steps, cut):
        state = evolve(all_spins_up(), t, steps)[-1]
        pairs = extract_logical_pairs(state, cut)
        assert len(pairs) == state.n
        self._assert_pair_pattern(pairs)
