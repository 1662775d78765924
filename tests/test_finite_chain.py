import functools
import itertools
import operator
import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as hst

from cqcalab import finite_chain
from cqcalab.automaton import fractal, glider, identity, random_cqca, shear, swap
from cqcalab.cli import main
from cqcalab.finite_chain import (
    BoundaryBreaksAutomorphism,
    FiniteOperator,
    GeneratorsDoNotCommute,
    NotPure,
    evolve_finite,
    f2_rank,
    global_y_parity,
    invert_rule,
    mirror_time,
    oracle_sweep,
    ring_entropy_profile,
    ring_state_entropy,
    step,
    truncate_rule,
)
from cqcalab.laurent import LaurentPoly
from cqcalab.phase_space import PhaseVector, parse_observable
from cqcalab.stabilizer import TIStabilizerState, all_spins_up, evolve, validate_state
from oracles import (
    generator_entropy,
    letter_at,
    matrix_terms,
    orbit_per_site,
    prefix_ranks,
    reference_rank,
    ring_translates,
    rule_images,
    scalar_product_terms,
    step_per_site,
    xor_terms,
)


def S(text):
    return validate_state(parse_observable(text))


def all_images(rule):
    """The 2N one-site images from FiniteRule.images: those of X_0.., then Z_0...."""
    pairs = [rule.images(site) for site in range(rule.n_sites)]
    return [pair[part] for part in (0, 1) for pair in pairs]


def update_columns(rule):
    """Columns of the 2N x 2N update matrix: image j as X bits low, Z bits high."""
    return [op.x_mask | (op.z_mask << rule.n_sites) for op in all_images(rule)]


def op_at(n_sites, letters, first):
    """The Hermitian + Pauli product of the letters from site first on, wrapped around n_sites."""
    x = z = 0
    for k, letter in enumerate(letters):
        site = (first + k) % n_sites
        x |= (letter in "XY") << site
        z |= (letter in "ZY") << site
    return FiniteOperator.hermitian(n_sites, x, z)


def op7(letters, phase=0):
    """Build a 7-site operator from a site-0-aligned letter string."""
    x = z = 0
    for k, letter in enumerate(letters):
        if letter in "XY":
            x |= 1 << k
        if letter in "ZY":
            z |= 1 << k
    return FiniteOperator(7, x, z, phase)


class TestFiniteOperator:
    def test_single_site_letters_are_hermitian_plus(self):
        for letter in "XYZ":
            op = FiniteOperator.single_site(5, 2, letter)
            assert str(op) == f"+11{letter}11"

    def test_pauli_multiplication_table(self):
        x = FiniteOperator.single_site(1, 0, "X")
        y = FiniteOperator.single_site(1, 0, "Y")
        z = FiniteOperator.single_site(1, 0, "Z")
        # XY = iZ, YZ = iX, ZX = iY, and squares are the identity
        assert (x * y) == FiniteOperator(1, 0, 1, 1)
        assert (y * z) == FiniteOperator(1, 1, 0, 1)
        iy = FiniteOperator(1, 1, 1, y.phase_exp + 1)
        assert (z * x) == iy
        for p in (x, y, z):
            assert p * p == FiniteOperator.identity(1)

    def test_anticommutation(self):
        x = FiniteOperator.single_site(3, 1, "X")
        z = FiniteOperator.single_site(3, 1, "Z")
        assert not x.commutes_with(z)
        assert x.commutes_with(FiniteOperator.single_site(3, 0, "Z"))

    @pytest.mark.parametrize("n_sites", [0, 1, 5])
    def test_support_past_the_chain_raises(self, n_sites):
        for masks in ((1 << n_sites, 0), (0, 1 << n_sites)):
            with pytest.raises(ValueError, match="^operator support exceeds the chain$"):
                FiniteOperator(n_sites, *masks)

    def test_string_rendering(self):
        assert str(op7("11ZYZ11", phase=3)) == "-11ZYZ11"
        assert str(op7("X111111")) == "+X111111"

    @given(hst.data(), hst.integers(min_value=0, max_value=70))
    def test_string_against_letter_at(self, data, n):
        x, z = (data.draw(hst.integers(min_value=0, max_value=(1 << n) - 1)) for _ in "xz")
        op = FiniteOperator(n, x, z, data.draw(hst.integers(min_value=0, max_value=3)))
        y_count = (x & z).bit_count()
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[(op.phase_exp - y_count) % 4]
        assert str(op) == prefix + "".join(letter_at(op, k) for k in range(n))


class TestTruncateRule:
    def test_glider_interior_and_end_images(self):
        rule = truncate_rule(glider(), 7, "open")
        assert step(rule, FiniteOperator.single_site(7, 3, "Z")) == op7("11ZXZ11")
        assert step(rule, FiniteOperator.single_site(7, 0, "Z")) == op7("XZ11111")

    def test_glider_image_of_y_carries_minus(self):
        rule = truncate_rule(glider(), 7, "open")
        image = step(rule, FiniteOperator.single_site(7, 3, "Y"))
        assert image == op7("11ZYZ11", phase=3)
        assert str(image) == "-11ZYZ11"

    def test_ring_wraps(self):
        rule = truncate_rule(glider(), 8, "ring")
        image = step(rule, FiniteOperator.single_site(8, 0, "Z"))
        assert image.x_mask == 0b00000001
        assert image.z_mask == 0b10000010

    def test_automorphism_condition_holds(self):
        for boundary in ("open", "ring"):
            rule = truncate_rule(glider(), 9, boundary)
            cols = update_columns(rule)
            assert f2_rank(cols) == 18

    def test_fractal_open_truncation_is_still_an_automorphism(self):
        truncate_rule(fractal(), 7, "open")

    def test_glider_squared_open_truncation_rejected(self):
        # cut Z-images of neighboring end sites anticommute after truncation
        with pytest.raises(BoundaryBreaksAutomorphism):
            truncate_rule(glider() @ glider(), 9, "open")

    def test_glider_squared_ring_is_fine(self):
        truncate_rule(glider() @ glider(), 9, "ring")

    def test_chain_too_short(self):
        with pytest.raises(ValueError):
            truncate_rule(glider(), 2, "open")

    def test_ring_rule_is_one_pair(self):
        # Storing all 2N rotated images peaked at 5.9 MiB here.
        tracemalloc.start()
        try:
            rule = truncate_rule(fractal(), 4096, "ring")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rule.left == rule.right == ()
        assert peak < 64 * 2**10
        assert rule.images(4095) == (op_at(4096, "XYX", 4094), op_at(4096, "X", 4095))

    def test_open_rule_stores_cut_pairs(self):
        rule = truncate_rule(glider(), 7, "open")
        assert rule.left == ((op_at(7, "Z", 0), op_at(7, "XZ", 0)),)
        assert rule.right == ((op_at(7, "Z", 6), op_at(7, "ZX", 5)),)
        assert rule.images(3) == (op_at(7, "Z", 3), op_at(7, "ZXZ", 2))

    def test_ends_must_fit_the_chain(self):
        rule = truncate_rule(glider(), 7, "open")
        with pytest.raises(ValueError, match="end pairs cover more than the chain"):
            finite_chain.FiniteRule(7, "open", rule.bulk, rule.left * 4, rule.right * 4)
        for site in (-1, 7):
            with pytest.raises(ValueError, match=f"site {site} outside 0..6"):
                rule.images(site)


def reference_images(t, n_sites, boundary):
    """The 2N one-site images (X_0.., then Z_0..) as (X sites, Z sites) term sets.

    Built from the matrix terms alone: the image of X_s (Z_s) has factors
    at s + e for the terms e of column (t11, t21) ((t12, t22)).  An open
    chain keeps the sites inside the window 0..N-1; a ring takes them mod
    N, where two factors landing on one site cancel.
    """
    (t11, t12), (t21, t22) = matrix_terms(t.matrix)

    def place(terms, s):
        sites = [s + e for e in terms]
        if boundary == "ring":
            return functools.reduce(xor_terms, ({e % n_sites} for e in sites), frozenset())
        return frozenset(e for e in sites if 0 <= e < n_sites)

    return [
        (place(x_terms, s), place(z_terms, s))
        for x_terms, z_terms in ((t11, t21), (t12, t22))
        for s in range(n_sites)
    ]


def all_pairs_is_automorphism(images):
    """Reference: the symplectic forms of all pairs of one-site images."""
    n = len(images) // 2
    for i, j in itertools.combinations(range(2 * n), 2):
        (xi, zi), (xj, zj) = images[i], images[j]
        form = scalar_product_terms(xi, zj) ^ scalar_product_terms(zi, xj)
        # Source generators X_a, Z_b anticommute iff a == b.
        if form != (j - i == n):
            return False
    return True


def truncation_verdict(t, n_sites, boundary):
    """Whether truncate_rule accepts; an accepted rule must have the reference images."""
    try:
        rule = truncate_rule(t, n_sites, boundary)
    except BoundaryBreaksAutomorphism:
        return False
    masks = [
        (sum(1 << e for e in x_sites), sum(1 << e for e in z_sites))
        for x_sites, z_sites in reference_images(t, n_sites, boundary)
    ]
    assert [(op.x_mask, op.z_mask) for op in all_images(rule)] == masks
    return True


class TestWindowedAutomorphism:
    """truncate_rule checks only the window truncation can break: nothing
    on a ring, pairs of sites within radius of the ends on an open chain."""

    @given(hst.integers(min_value=0, max_value=10**6),
           hst.integers(min_value=0, max_value=4),
           hst.integers(min_value=1, max_value=2),
           hst.sampled_from(["open", "ring"]),
           hst.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_all_pairs(self, seed, word_length, shear_degree, boundary, extra):
        t = random_cqca(seed, word_length, shear_degree)
        n_sites = 2 * t.matrix.max_entry_degree() + extra
        verdict = truncation_verdict(t, n_sites, boundary)
        assert verdict == all_pairs_is_automorphism(reference_images(t, n_sites, boundary))

    def test_sweep_covers_failing_open_truncations(self):
        verdicts = {"open": [], "ring": []}
        for seed in range(30):
            t = random_cqca(seed, 1 + seed % 4, 1 + seed % 2)
            radius = t.matrix.max_entry_degree()
            for boundary, found in verdicts.items():
                for n_sites in range(2 * radius + 1, 2 * radius + 5):
                    verdict = truncation_verdict(t, n_sites, boundary)
                    assert verdict == all_pairs_is_automorphism(
                        reference_images(t, n_sites, boundary)
                    )
                    found.append(verdict)
        assert all(verdicts["ring"])
        assert True in verdicts["open"] and False in verdicts["open"]


class TestEvolveFinite:
    def test_identity_stays_identity(self):
        rule = truncate_rule(glider(), 7, "open")
        seq = evolve_finite(rule, FiniteOperator.identity(7), 5)
        assert all(op == FiniteOperator.identity(7) for op in seq)

    def test_glider_observable_moves(self):
        rule = truncate_rule(glider(), 9, "ring")
        # Z Y X on sites 4, 5, 6
        start = FiniteOperator.hermitian(9, 0b1100000, 0b0110000)
        after = step(rule, start)
        # the glider support translates by exactly one site toward lower sites
        assert (after.x_mask | after.z_mask) == (start.x_mask | start.z_mask) >> 1

    def test_reflection_at_open_ends(self):
        rule = truncate_rule(glider(), 7, "open")
        op = FiniteOperator.single_site(7, 1, "Z")
        sizes = [(o.x_mask | o.z_mask).bit_count() for o in evolve_finite(rule, op, 16)]
        assert sizes[0] == 1
        assert 1 in sizes[1:]  # returns to a single site at the mirror step
        for a, b in zip(sizes, sizes[1:]):
            assert b - a <= 2  # locality: support grows at most one site per side

    @given(hst.integers(min_value=0, max_value=10**6),
           hst.integers(min_value=1, max_value=4),
           hst.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_products_map_to_products(self, seed, word_length, steps):
        import random

        t = random_cqca(seed, word_length, 2)
        rule = truncate_rule(t, 20, "ring")
        rng = random.Random(seed)
        a = FiniteOperator(20, rng.getrandbits(20), rng.getrandbits(20), rng.randrange(4))
        b = FiniteOperator(20, rng.getrandbits(20), rng.getrandbits(20), rng.randrange(4))
        image_product = step(rule, a) * step(rule, b)
        product_image = step(rule, a * b)
        assert image_product == product_image

    @given(hst.integers(min_value=0, max_value=10**6),
           hst.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_reversibility_with_phase(self, seed, steps):
        import random

        t = random_cqca(seed, 4, 2)
        rule = truncate_rule(t, 20, "ring")
        back = invert_rule(rule)
        rng = random.Random(seed + 1)
        op = FiniteOperator(20, rng.getrandbits(20), rng.getrandbits(20), rng.randrange(4))
        forward = evolve_finite(rule, op, steps)[-1]
        recovered = forward
        for _ in range(steps):
            recovered = step(back, recovered)
        assert recovered == op


def random_operator(rng, n_sites):
    return FiniteOperator(n_sites, rng.getrandbits(n_sites), rng.getrandbits(n_sites), rng.randrange(4))


def assert_step_matches_reference(rule, rng, count=8):
    for _ in range(count):
        op = random_operator(rng, rule.n_sites)
        assert step(rule, op) == step_per_site(rule, op)


def truncations(t, sizes):
    """The valid ring and open truncations of t to each of the sizes."""
    for n_sites in sizes:
        for boundary in ("ring", "open"):
            try:
                yield truncate_rule(t, n_sites, boundary)
            except BoundaryBreaksAutomorphism:
                pass


RADIUS_ZERO = [identity(), swap(), shear(LaurentPoly.one())]


class TestBitSlicedStep:
    """step against the per-site product of images in tests/oracles.py, phases included."""

    @given(hst.integers(min_value=0, max_value=10**6),
           hst.integers(min_value=0, max_value=4),
           hst.integers(min_value=1, max_value=2),
           hst.sampled_from(["open", "ring"]),
           hst.integers(min_value=0, max_value=48))
    @settings(max_examples=80, deadline=None)
    def test_random_rules(self, seed, word_length, shear_degree, boundary, extra):
        t = random_cqca(seed, word_length, shear_degree)
        n_sites = 2 * t.matrix.max_entry_degree() + 1 + extra
        try:
            rule = truncate_rule(t, n_sites, boundary)
        except BoundaryBreaksAutomorphism:
            return
        rng = random.Random(seed)
        assert_step_matches_reference(rule, rng)
        assert_step_matches_reference(invert_rule(rule), rng)

    @pytest.mark.parametrize("t", [glider(), fractal(), glider() @ glider(), random_cqca(0, 3, 2)])
    def test_short_rings_where_wrapped_offsets_overlap(self, t):
        # On rings of at most 4r sites an image pair overlaps at d and N - d at once.
        radius = t.matrix.max_entry_degree()
        rng = random.Random(radius)
        for rule in truncations(t, range(2 * radius + 1, 4 * radius + 2)):
            assert_step_matches_reference(rule, rng, count=30)

    @pytest.mark.parametrize("t", RADIUS_ZERO)
    def test_radius_zero_rules_and_single_sites(self, t):
        for rule in truncations(t, range(1, 4)):
            n = rule.n_sites
            for x, z, phase in itertools.product(range(1 << n), range(1 << n), range(4)):
                op = FiniteOperator(n, x, z, phase)
                assert step(rule, op) == step_per_site(rule, op)

    @given(hst.integers(min_value=0, max_value=10**6), hst.sampled_from(["open", "ring"]),
           hst.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_corrupted_rules(self, seed, boundary, corruptions):
        # Bulk and end images replaced by arbitrary operators break the
        # automorphism property, and ends of any width break the cut; step must
        # still multiply the images.  One image keeps its masks but not its phase.
        rng = random.Random(seed)
        t = random_cqca(seed, 2, 1)
        n_sites = 2 * t.matrix.max_entry_degree() + 1 + rng.randrange(20)
        try:
            rule = truncate_rule(t, n_sites, boundary)
        except BoundaryBreaksAutomorphism:
            rule = truncate_rule(t, n_sites, "ring")
        left, right = (rng.randrange(n_sites // 2 + 1) for _ in "LR")
        end_sites = [*range(left), *range(n_sites - right, n_sites)]
        pairs = [list(rule.bulk)] + [list(rule.images(s)) for s in end_sites]
        for _ in range(corruptions):
            rng.choice(pairs)[rng.randrange(2)] = random_operator(rng, n_sites)
        pair, part = rng.choice(pairs), rng.randrange(2)
        image = pair[part]
        pair[part] = FiniteOperator(n_sites, image.x_mask, image.z_mask, image.phase_exp + 1 + rng.randrange(3))
        bulk, *ends = map(tuple, pairs)
        corrupted = finite_chain.FiniteRule(n_sites, rule.boundary, bulk, tuple(ends[:left]), tuple(ends[left:]))
        assert tuple(corrupted.images(s) for s in range(n_sites)) == rule_images(corrupted)
        assert_step_matches_reference(corrupted, rng)

    @pytest.mark.parametrize("t", [glider(), fractal(), random_cqca(0, 3, 2)])
    def test_kernel_run(self, t):
        # A ring has no ends; an open chain stores the r cut sites at each end, its inverse 2r.
        radius = t.matrix.max_entry_degree()
        n_sites = 4 * radius + 9
        ring = truncate_rule(t, n_sites, "ring")
        assert ring.kernel[:2] == (0, n_sites) and ring.left == ring.right == ()
        inverse = invert_rule(ring)
        assert inverse.kernel[:2] == (0, n_sites) and inverse.left == inverse.right == ()
        for rule in truncations(t, [n_sites]):
            if rule.boundary == "open":
                assert rule.kernel[:2] == (radius, n_sites - radius)
                assert len(rule.left) == len(rule.right) == radius
                assert invert_rule(rule).kernel[:2] == (2 * radius, n_sites - 2 * radius)

    @pytest.mark.parametrize("t, n_sites", [(glider(), 7), (fractal(), 7), (glider(), 64)])
    def test_mirror_time_pinned_to_reference(self, t, n_sites):
        rule = truncate_rule(t, n_sites, "open")
        sites = range(n_sites) if n_sites < 10 else (0, 1, 2, 31, 62, 63)
        cases = [(site, letter) for site in sites for letter in "XYZ"]
        fast = [mirror_time(rule, *case) for case in cases]
        with mock.patch.object(finite_chain, "orbit_masks", side_effect=orbit_per_site) as reference:
            assert fast == [mirror_time(rule, *case) for case in cases]
        assert reference.call_count == len(cases)

    @pytest.mark.parametrize("n_sites, parity", [(7, "-2:Y"), (64, "5:Z"), (64, "-30:X")])
    def test_parity_table_pinned_to_reference(self, capsys, n_sites, parity):
        argv = ["finite", "glider", "--sites", str(n_sites), f"--origin={-(n_sites // 2)}",
                f"--parity={parity}", "--steps", str(2 * n_sites)]
        assert main(argv) == 0
        fast = capsys.readouterr().out
        with mock.patch.object(finite_chain, "orbit_masks", side_effect=orbit_per_site) as reference:
            assert main(argv) == 0
        assert reference.call_count == 1
        assert fast == capsys.readouterr().out
        assert len(fast.splitlines()) == 2 * n_sites + 1


class TestOrbitMasks:
    """orbit_masks, the kernel under step, evolve_finite and cqca finite, against step_per_site
    iterated (tests/oracles.py), phases included."""

    @given(hst.integers(min_value=0, max_value=10**6),
           hst.integers(min_value=0, max_value=5),
           hst.integers(min_value=1, max_value=2),
           hst.sampled_from(["open", "ring"]),
           hst.integers(min_value=0, max_value=40),
           hst.integers(min_value=0, max_value=24))
    @settings(max_examples=80, deadline=None)
    def test_random_rules(self, seed, word_length, shear_degree, boundary, extra, steps):
        t = random_cqca(seed, word_length, shear_degree)
        n_sites = 2 * t.matrix.max_entry_degree() + 1 + extra
        try:
            rule = truncate_rule(t, n_sites, boundary)
        except BoundaryBreaksAutomorphism:
            return
        for rule in (rule, invert_rule(rule)):
            op = random_operator(random.Random(seed), n_sites)
            expected = list(orbit_per_site(rule, op, steps))
            assert list(finite_chain.orbit_masks(rule, op, steps)) == expected
            assert evolve_finite(rule, op, steps) == [FiniteOperator(n_sites, *image) for image in expected]

    @pytest.mark.parametrize("t", [glider(), fractal()])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_open_chains_cross_their_ends(self, t, inverse):
        # A Y at the first site walks into the bulk and out through both end pairs.
        rule = truncate_rule(t, 9, "open")
        rule = invert_rule(rule) if inverse else rule
        assert rule.left and rule.right
        op = FiniteOperator.single_site(rule.n_sites, 0, "Y")
        images = list(finite_chain.orbit_masks(rule, op, 40))
        assert images == list(orbit_per_site(rule, op, 40))
        touched = {site for x, z, _ in images for site in range(rule.n_sites) if (x | z) >> site & 1}
        assert {0, rule.n_sites - 1} <= touched

    def test_negative_steps_rejected_by_evolve_finite(self):
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            evolve_finite(truncate_rule(glider(), 7, "ring"), FiniteOperator.identity(7), -1)


def gauss_jordan_inverse(columns, dim):
    """Reference: invert a dim x dim F2 matrix given as bitset columns."""
    # Work on rows of [M | I]; row i starts as (bits of row i of M, e_i).
    rows = []
    for i in range(dim):
        m_row = 0
        for j, col in enumerate(columns):
            m_row |= ((col >> i) & 1) << j
        rows.append((m_row, 1 << i))
    for pivot_col in range(dim):
        pivot_row = next(r for r in range(pivot_col, dim) if (rows[r][0] >> pivot_col) & 1)
        rows[pivot_col], rows[pivot_row] = rows[pivot_row], rows[pivot_col]
        for r in range(dim):
            if r != pivot_col and (rows[r][0] >> pivot_col) & 1:
                rows[r] = (rows[r][0] ^ rows[pivot_col][0], rows[r][1] ^ rows[pivot_col][1])
    # rows[i][1] is now row i of the inverse; transpose back to columns.
    return [sum(((rows[i][1] >> j) & 1) << i for i in range(dim)) for j in range(dim)]


class TestInvertRule:
    @given(hst.integers(min_value=0, max_value=10**6),
           hst.integers(min_value=0, max_value=4),
           hst.integers(min_value=1, max_value=2),
           hst.sampled_from(["open", "ring"]),
           hst.integers(min_value=0, max_value=24))
    @settings(max_examples=60, deadline=None)
    def test_masks_match_gauss_jordan(self, seed, word_length, shear_degree, boundary, extra):
        t = random_cqca(seed, word_length, shear_degree)
        n_sites = 2 * t.matrix.max_entry_degree() + 1 + extra
        try:
            rule = truncate_rule(t, n_sites, boundary)
        except BoundaryBreaksAutomorphism:
            return
        inverse = invert_rule(rule)
        assert update_columns(inverse) == gauss_jordan_inverse(update_columns(rule), 2 * n_sites)
        # Phases: one forward step returns each inverse image to X_s or Z_s, sign included.
        for site in range(n_sites):
            x_image, z_image = inverse.images(site)
            assert step(rule, x_image) == FiniteOperator.single_site(n_sites, site, "X")
            assert step(rule, z_image) == FiniteOperator.single_site(n_sites, site, "Z")

    @given(hst.integers(min_value=0, max_value=10**6),
           hst.integers(min_value=0, max_value=4),
           hst.integers(min_value=1, max_value=2),
           hst.sampled_from(["open", "ring"]),
           hst.integers(min_value=0, max_value=24))
    @settings(max_examples=40, deadline=None)
    def test_double_inverse_is_the_rule(self, seed, word_length, shear_degree, boundary, extra):
        # The inverse's ends are r wider than the rule's, and the double inverse's 2r.
        t = random_cqca(seed, word_length, shear_degree)
        n_sites = 2 * t.matrix.max_entry_degree() + 1 + extra
        try:
            rule = truncate_rule(t, n_sites, boundary)
        except BoundaryBreaksAutomorphism:
            return
        twice = invert_rule(invert_rule(rule))
        assert [twice.images(s) for s in range(n_sites)] == [rule.images(s) for s in range(n_sites)]

    @pytest.mark.parametrize("boundary", ["ring", "open"])
    def test_forward_step_checks_every_site(self, boundary):
        # Every site's inverse pair is checked by one forward step, run sites included.
        rule = truncate_rule(glider(), 12, boundary)
        landed = set()

        def recording_step(rule, op):
            out = step(rule, op)
            landed.add((out.x_mask, out.z_mask))
            return out

        with mock.patch.object(finite_chain, "step", recording_step):
            invert_rule(rule)
        assert landed == {(1 << s, 0) for s in range(12)} | {(0, 1 << s) for s in range(12)}

    def test_sweep_covers_open_and_ring(self):
        seen = set()
        for seed in range(12):
            t = random_cqca(seed, 1 + seed % 4, 1 + seed % 2)
            radius = t.matrix.max_entry_degree()
            for rule in truncations(t, [2 * radius + 1, 2 * radius + 6]):
                columns = gauss_jordan_inverse(update_columns(rule), 2 * rule.n_sites)
                assert update_columns(invert_rule(rule)) == columns
                seen.add(rule.boundary)
        assert seen == {"open", "ring"}

    @pytest.mark.parametrize("t, boundary", [(glider(), "ring"), (fractal(), "open"), (identity(), "open")])
    def test_non_symplectic_rule_rejected(self, t, boundary):
        # The bulk's X image, then site 0's (a new end pair where the rule has none).
        rule = truncate_rule(t, 9, boundary)
        x_image, z_image = rule.images(0)
        for good, corrupt in [
            (rule.bulk[0], lambda bad: finite_chain.FiniteRule(
                rule.n_sites, rule.boundary, (bad, rule.bulk[1]), rule.left, rule.right)),
            (x_image, lambda bad: finite_chain.FiniteRule(
                rule.n_sites, rule.boundary, rule.bulk, ((bad, z_image),) + rule.left[1:], rule.right)),
        ]:
            for bad in (good * FiniteOperator.single_site(9, 6, "Z"), FiniteOperator.identity(9)):
                with pytest.raises(ValueError, match="not symplectic"):
                    invert_rule(corrupt(bad))

    def test_large_ring_inverts_quickly(self):
        # The Gauss-Jordan inverse took over a second here at 1024 sites.
        rule = truncate_rule(fractal(), 1024, "ring")
        start = time.perf_counter()
        inverse = invert_rule(rule)
        assert time.perf_counter() - start < 1.0
        op = FiniteOperator(1024, 0b1011 << 500, 0b110 << 600, 1)
        assert step(inverse, step(rule, op)) == op


class TestMirrorTime:
    def test_all_single_site_paulis_mirror_within_cap(self):
        rule = truncate_rule(glider(), 7, "open")
        for site in range(7):
            for letter in "XYZ":
                assert mirror_time(rule, site, letter) is not None

    def test_z_from_site_one_lands_on_site_five(self):
        rule = truncate_rule(glider(), 7, "open")
        found = mirror_time(rule, 1, "Z")
        op = evolve_finite(rule, FiniteOperator.single_site(7, 1, "Z"), found)[-1]
        assert op.x_mask | op.z_mask == 1 << 5

    def test_center_site_returns_to_itself(self):
        rule = truncate_rule(glider(), 7, "open")
        found = mirror_time(rule, 3, "Z")
        op = evolve_finite(rule, FiniteOperator.single_site(7, 3, "Z"), found)[-1]
        assert op.x_mask | op.z_mask == 1 << 3
        # The search starts after one step, so step 0 never counts (values from the stepwise search).
        assert [mirror_time(rule, 3, letter) for letter in "XYZ"] == [1, 8, 7]
        assert [mirror_time(truncate_rule(fractal(), 9, "open"), 4, letter) for letter in "XYZ"] == [None, None, 1]

    def test_x_from_site_two_within_sixteen_steps(self):
        rule = truncate_rule(glider(), 7, "open")
        assert mirror_time(rule, 2, "X") <= 16


class TestGlobalYParity:
    def test_single_z(self):
        assert global_y_parity(FiniteOperator.single_site(4, 1, "Z")) == -1

    def test_two_ys(self):
        assert global_y_parity(FiniteOperator.hermitian(2, 0b11, 0b11)) == 1

    def test_zxz(self):
        assert global_y_parity(op7("ZXZ1111")) == -1

    def test_single_y_and_single_x(self):
        # Y carries both an X and a Z factor, so it keeps its sign; X does not.
        assert global_y_parity(FiniteOperator.single_site(3, 1, "Y")) == 1
        assert global_y_parity(FiniteOperator.single_site(3, 1, "X")) == -1


@hst.composite
def f2_row_lists(draw):
    """Bitset rows up to 600 bits wide, with zero rows, repeats and sums of drawn rows mixed in."""
    width = draw(hst.sampled_from([1, 8, 64, 129, 300, 600]))
    drawn = draw(hst.lists(hst.integers(min_value=0, max_value=(1 << width) - 1), max_size=10))
    rows = list(drawn)
    for kind in draw(hst.lists(hst.sampled_from(["zero", "repeat", "sum"]), max_size=6)):
        if kind == "zero" or not drawn:
            rows.append(0)
        else:
            picked = draw(hst.lists(hst.sampled_from(drawn), min_size=1, max_size=4))
            rows.append(picked[0] if kind == "repeat" else functools.reduce(operator.xor, picked))
    return draw(hst.permutations(rows))


WIDE = (1 << 200) | (1 << 129) | 5


class TestF2Rank:
    @given(f2_row_lists())
    def test_matches_reference_rank(self, rows):
        assert f2_rank(rows) == reference_rank(rows)

    @pytest.mark.parametrize("rows, rank", [
        ([], 0),
        ([0, 0, 0], 0),
        ([WIDE, WIDE, 1 << 129, WIDE ^ (1 << 129), 0], 2),
        ([1 << k for k in range(130)] + [(1 << 130) - 1], 130),
    ])
    def test_known_ranks(self, rows, rank):
        assert f2_rank(rows) == reference_rank(rows) == rank

    @given(f2_row_lists())
    def test_echelon_keys_match_a_top_bit_pass(self, rows):
        pivots = finite_chain._echelon(rows, [0] * 602)
        keys = {k - 1 for k, pivot in enumerate(pivots) if pivot}
        assert keys == top_bit_keys(rows)
        assert all(pivot.bit_length() == k for k, pivot in enumerate(pivots) if pivot)
        assert f2_rank(rows) == reference_rank(rows) == len(keys)


def top_bit_keys(rows):
    """The top bits of an echelon basis of the rows: each row is scanned from its top bit down and
    reduced by the pivot of every set bit that has one, as a separate pass from _echelon's."""
    basis = {}
    for row in rows:
        for bit in reversed(range(row.bit_length())):
            if row >> bit & 1 and bit in basis:
                row ^= basis[bit]
        if row:
            basis[row.bit_length() - 1] = row
    return set(basis)


class TestRingEntropy:
    def test_bell_state_reference(self):
        # generators XX and ZZ of the 2-qubit Bell state; one-site region -> 1
        rows = [0b0011, 0b1100]
        assert generator_entropy(rows, 2, [0]) == 1
        assert generator_entropy(rows, 2, [1]) == 1

    def test_zxz_half_ring(self):
        assert ring_state_entropy(S("ZXZ@-1"), 12, range(6)) == 2

    def test_product_state(self):
        for region in (range(1), range(5)):
            assert ring_state_entropy(all_spins_up(), 12, region) == 0

    def test_yxy_single_site_region(self):
        assert ring_state_entropy(S("YXY@-1"), 16, range(1)) == 1

    def test_wrapped_region(self):
        region = [10, 11, 0, 1]
        assert ring_state_entropy(S("ZXZ@-1"), 12, region) == 2

    def test_ring_too_short(self):
        with pytest.raises(ValueError):
            ring_state_entropy(S("YXXXXXY@-3"), 12, range(4))

    def test_whole_ring_region_raises(self):
        with pytest.raises(ValueError, match="^region must be a proper nonempty subset of the ring$"):
            ring_state_entropy(S("ZXZ@-1"), 12, range(12))

    def test_translates_commute(self):
        rows = ring_translates(S("XZX@-1"), 10)
        assert f2_rank(rows) == 10

    def test_noncommuting_seed_detected(self):
        # the asymmetric seed XZ anticommutes with its own translate; the
        # purity checks would reject it, so build the raw state by hand
        from cqcalab.stabilizer import TIStabilizerState

        bad = TIStabilizerState(parse_observable("XZ@0"), 1)
        with pytest.raises(GeneratorsDoNotCommute):
            ring_state_entropy(bad, 12, range(4))

    def test_rank_deficient_seed_detected(self):
        # ZXYXZ components share the divisor 1 + u + u^2, which also divides
        # u^12 + 1, so the twelve wrapped translates are dependent
        from cqcalab.finite_chain import NotPure
        from cqcalab.stabilizer import TIStabilizerState

        bad = TIStabilizerState(parse_observable("ZXYXZ@-2"), 2)
        with pytest.raises(NotPure):
            ring_state_entropy(bad, 12, range(4))

    @given(hst.integers(min_value=0, max_value=10**6),
           hst.integers(min_value=0, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_matches_closed_form(self, seed, steps):
        t = random_cqca(seed, 4, 2)
        state = evolve(all_spins_up(), t, steps)[-1]
        if 32 < 2 * (2 * state.n + 1):
            return
        for size in (2 * state.n + 1, 32 - 2 * (2 * state.n + 1)):
            if not 1 <= size <= 31:
                continue
            expected = min(2 * state.n, size)
            assert ring_state_entropy(state, 32, range(size)) == expected


def reference_ring_rows(seed, n_sites):
    """Wrapped translates, checked over all pairs and by full rank as the reference."""
    rows = ring_translates(seed, n_sites)
    low = (1 << n_sites) - 1
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            a, b = rows[i], rows[j]
            crossings = (a & low & (b >> n_sites)).bit_count() + ((a >> n_sites) & b & low).bit_count()
            if crossings % 2:
                raise GeneratorsDoNotCommute(f"translates {i} and {j} anticommute")
    rank = reference_rank(rows)
    if rank != n_sites:
        raise NotPure(n_sites - rank)
    return rows


MAX_RING = 40


@hst.composite
def ring_states(draw):
    """(state, ring size): a random automaton's orbit of a valid seed, ring of at most MAX_RING."""
    start = draw(hst.sampled_from(["Z@0", "ZXZ@-1", "YXY@-1", "XZX@-1"]))
    t = random_cqca(draw(hst.integers(min_value=0, max_value=10**6)),
                    draw(hst.integers(min_value=1, max_value=4)),
                    draw(hst.integers(min_value=1, max_value=2)))
    states = evolve(S(start), t, draw(hst.integers(min_value=1, max_value=6)))
    fitting = [s for s in states if 2 * (2 * s.n + 1) <= MAX_RING]
    # Drawn from the far end, so that Hypothesis favours wide states on large rings.
    state = fitting[-1 - draw(hst.integers(min_value=0, max_value=len(fitting) - 1))]
    shortest = max(2 * (2 * state.n + 1), 2)
    return state, MAX_RING - draw(hst.integers(min_value=0, max_value=MAX_RING - shortest))


class TestRingOracleFastPath:
    @given(ring_states())
    @settings(max_examples=50, deadline=None)
    def test_profile_matches_reference(self, case):
        state, n_sites = case
        rows = reference_ring_rows(state, n_sites)
        expected = [generator_entropy(rows, n_sites, range(size)) for size in range(n_sites + 1)]
        assert ring_entropy_profile(state, n_sites) == expected

    @given(ring_states(), hst.data())
    @settings(max_examples=50, deadline=None)
    def test_region_entropy_matches_reference(self, case, data):
        state, n_sites = case
        region = data.draw(hst.lists(hst.integers(min_value=0, max_value=n_sites - 1),
                                     min_size=1, max_size=n_sites - 1, unique=True))
        rows = reference_ring_rows(state, n_sites)
        assert ring_state_entropy(state, n_sites, region) == generator_entropy(rows, n_sites, region)

    # X1111Z@0 anticommutes only with its translates 5 and 7 sites away; with
    # half-length 1 its support (width 5) is wider than 2n, so the
    # commutation window must follow the support, not n.  The translates of
    # ZZ@0 multiply to the identity: rank-deficient by exactly 1.
    @pytest.mark.parametrize("literal, half_length", [
        ("XZ@0", 1), ("ZXYXZ@-2", 2), ("X1111Z@0", 2), ("X1111Z@0", 1), ("ZZ@0", 1),
    ])
    def test_bad_seed_raises_as_reference(self, literal, half_length):
        bad = TIStabilizerState(parse_observable(literal), half_length)
        with pytest.raises((GeneratorsDoNotCommute, NotPure)) as expected:
            reference_ring_rows(bad, 12)
        for compute in (lambda: ring_entropy_profile(bad, 12),
                        lambda: ring_state_entropy(bad, 12, [5, 0, 7])):
            with pytest.raises(expected.type) as got:
                compute()
            assert str(got.value) == str(expected.value)

    # Pinned messages, on a 12-site ring and on the shortest ring each seed's half-length admits.
    @pytest.mark.parametrize("literal, half_length, n_sites, error, message", [
        ("XZ@0", 1, 6, GeneratorsDoNotCommute, "translates 0 and 1 anticommute"),
        ("XZ@0", 1, 12, GeneratorsDoNotCommute, "translates 0 and 1 anticommute"),
        ("X1111Z@0", 1, 12, GeneratorsDoNotCommute, "translates 0 and 5 anticommute"),
        ("ZXYXZ@-2", 2, 12, NotPure, "generator matrix is rank-deficient by 2"),
        ("ZZ@0", 1, 6, NotPure, "generator matrix is rank-deficient by 1"),
    ])
    def test_bad_seed_messages(self, literal, half_length, n_sites, error, message):
        bad = TIStabilizerState(parse_observable(literal), half_length)
        with pytest.raises(error) as expected:
            reference_ring_rows(bad, n_sites)
        assert str(expected.value) == message
        for compute in (lambda: ring_entropy_profile(bad, n_sites),
                        lambda: ring_state_entropy(bad, n_sites, [0, 2])):
            with pytest.raises(error, match=f"^{message}$"):
                compute()

    # A one-site seed (n = 0): every translate lies inside the ring and none is eliminated.
    @pytest.mark.parametrize("literal", ["X@0", "Y@0", "Z@0", "Z@5", "Y@-7"])
    @pytest.mark.parametrize("n_sites", [2, 3, 8])
    def test_one_site_seed_matches_reference(self, literal, n_sites):
        state = TIStabilizerState(parse_observable(literal), 0)
        rows = reference_ring_rows(state, n_sites)
        expected = [generator_entropy(rows, n_sites, range(size)) for size in range(n_sites + 1)]
        assert ring_entropy_profile(state, n_sites) == expected
        for region in ([0], [n_sites - 1], list(range(1, n_sites))):
            assert ring_state_entropy(state, n_sites, region) == generator_entropy(rows, n_sites, region)

    # On a ring of exactly 2(2n + 1) sites, 2n of the N translates wrap: the most the oracle admits.
    @pytest.mark.parametrize("make, steps", [
        (fractal, 2), (fractal, 5), (glider, 3),
        (lambda: random_cqca(1, 6, 2), 2), (lambda: random_cqca(3, 6, 2), 3),
    ])
    def test_shortest_ring_matches_reference(self, make, steps):
        state = evolve(all_spins_up(), make(), steps)[-1]
        n_sites = 2 * (2 * state.n + 1)
        assert state.n > 0
        rows = reference_ring_rows(state, n_sites)
        expected = [generator_entropy(rows, n_sites, range(size)) for size in range(n_sites + 1)]
        assert ring_entropy_profile(state, n_sites) == expected
        rng = random.Random(steps)
        for size in (1, n_sites // 2, n_sites - 1):
            region = rng.sample(range(n_sites), size)
            assert ring_state_entropy(state, n_sites, region) == generator_entropy(rows, n_sites, region)

    def test_zero_generator_is_not_pure(self):
        zero = TIStabilizerState(PhaseVector.zero(), 0)
        for compute in (lambda: ring_entropy_profile(zero, 12),
                        lambda: ring_state_entropy(zero, 12, [5, 0, 7])):
            with pytest.raises(NotPure, match="^generator matrix is rank-deficient by 12$") as got:
                compute()
            assert got.value.rank_deficit == 12

    def test_off_origin_seed_matches_reference(self):
        state = TIStabilizerState(parse_observable("ZXZ@3"), 1)
        rows = reference_ring_rows(state, 12)
        expected = [generator_entropy(rows, 12, range(size)) for size in range(13)]
        assert ring_entropy_profile(state, 12) == expected

    @pytest.mark.parametrize("shift", [12, -12, 5 * 12 + 3, -7 * 12 - 5])
    def test_seed_moved_past_the_ring_wraps(self, shift):
        # Translates by whole rings are the same state; the wrap must take every exponent mod N.
        state = S("ZXZ@-1")
        moved = TIStabilizerState(state.xi.shifted(shift), state.n)
        assert ring_entropy_profile(moved, 12) == ring_entropy_profile(state, 12)
        assert ring_state_entropy(moved, 12, [5, 0, 7]) == ring_state_entropy(state, 12, [5, 0, 7])

    def test_profile_ring_too_short(self):
        with pytest.raises(ValueError, match="ring shorter"):
            ring_entropy_profile(S("YXXXXXY@-3"), 12)

    @pytest.mark.parametrize("region, message", [
        ([12], "region site 12 outside 0..11"),
        ([30], "region site 30 outside 0..11"),
        ([0] * 11, "region site 0 is repeated"),
        ([-1], "region site -1 outside 0..11"),
    ])
    def test_bad_region_site_is_named(self, region, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ring_state_entropy(S("ZXZ@-1"), 12, region)


class TestRingOracleCertificate:
    """The (w - 1)-row certificate: where it must decline, and its memory on a large ring."""

    # ZXYXZ's components share 1 + u + u^2, so its 4 wrap remainders have rank 2, yet on 13
    # and 14 sites (not multiples of 3) its translates are independent.  Z1X1Z is 5 sites
    # wide, wider than (N + 2) / 2 on 6 and 7 sites, so its certificate is never taken.
    @pytest.mark.parametrize("literal, half_length, n_sites, certificate_rank", [
        ("ZXYXZ@-2", 2, 13, 2), ("ZXYXZ@-2", 2, 14, 2), ("Z1X1Z@-2", 1, 6, None), ("Z1X1Z@-2", 1, 7, None),
    ])
    def test_declined_certificate_matches_reference(self, literal, half_length, n_sites, certificate_rank):
        state = TIStabilizerState(parse_observable(literal), half_length)
        rows = reference_ring_rows(state, n_sites)
        expected = [generator_entropy(rows, n_sites, range(size)) for size in range(n_sites + 1)]
        with mock.patch.object(finite_chain, "f2_rank", wraps=finite_chain.f2_rank) as certificate, \
                mock.patch.object(finite_chain, "_ring_basis", wraps=finite_chain._ring_basis) as fallback:
            assert ring_entropy_profile(state, n_sites) == expected
        assert fallback.call_count == 1
        if certificate_rank is None:
            assert not certificate.called
        else:
            (remainders,), _ = certificate.call_args
            assert len(remainders) == 4 and reference_rank(remainders) == certificate_rank

    def test_certified_profile_on_a_large_ring(self):
        state, n_sites = evolve(all_spins_up(), glider(), 3)[-1], 16384
        tracemalloc.start()
        try:
            with mock.patch.object(finite_chain, "_ring_basis") as fallback:
                profile = ring_entropy_profile(state, n_sites)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not fallback.called
        assert profile == [min(size, 2 * state.n, n_sites - size) for size in range(n_sites + 1)]
        assert peak < 2**20  # eliminating all N rows peaks at about 37.5 MB


def orbit_states(seed, n_sites):
    """All-spins-up's orbit under random_cqca(seed, 6, 2): one state per half-length fitting the ring."""
    states = {}
    for state in evolve(all_spins_up(), random_cqca(seed, 6, 2), n_sites // 4):
        if 2 * (2 * state.n + 1) <= n_sites:
            states.setdefault(state.n, state)
    return [states[n] for n in sorted(states)]


class TestRingOracleAtScale:
    """The row elimination against the former column pass on rings beyond Hypothesis's reach."""

    @pytest.mark.parametrize("seed, n_sites",
                             [(0, 64), (3, 128), (4, 256), (1, 512), (0, 1024), (3, 1024)])
    def test_profile_matches_column_pass(self, seed, n_sites):
        states = orbit_states(seed, n_sites)
        # About five widths from the narrowest up to the widest, which spans about half the ring.
        picked = states[:-1:max(len(states) // 4, 1)] + states[-1:]
        assert 4 * picked[-1].n >= n_sites // 2 - 8
        for state in picked:
            ranks = prefix_ranks(state, n_sites, range(n_sites))
            assert ring_entropy_profile(state, n_sites) == [r - size for size, r in enumerate(ranks)]

    @pytest.mark.parametrize("seed, n_sites", [(3, 128), (4, 256)])
    def test_region_entropy_matches_column_pass(self, seed, n_sites):
        rng = random.Random(seed)
        for state in orbit_states(seed, n_sites)[::4]:
            region = rng.sample(range(n_sites), rng.randrange(1, n_sites))
            ranks = prefix_ranks(state, n_sites, region + sorted(set(range(n_sites)) - set(region)))
            assert ring_state_entropy(state, n_sites, region) == ranks[len(region)] - len(region)


class TestOracleSweep:
    def test_stops_at_the_first_state_too_long_for_the_ring(self):
        t, sizes = random_cqca(1, 6, 2), (8, 16, 24, 32, 40)
        short = list(oracle_sweep(t, 20, 64, sizes))
        tracemalloc.start()
        try:
            long = list(oracle_sweep(t, 20000, 64, sizes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The sweep ends well inside 20 steps, so both runs check the same states.
        assert long == short and short[-1][0] < 19
        assert peak < 2 * 2**20  # building all 20,001 states first peaks at 111 MiB
