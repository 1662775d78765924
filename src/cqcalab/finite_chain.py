"""Brute-force, phase-tracked Pauli simulation on finite chains and rings.

This is the independent oracle for the symbolic layer: operators are
kept as two N-bit masks plus an exact power of i, rules store the
truncated one-site images, and entanglement is measured by F2 rank of
generator matrices instead of any closed form.

Convention: an operator is i**phase_exp times (product of X factors)
times (product of Z factors), and the one-site images of X and Z are
fixed to be Hermitian with + sign.  This gauge reproduces the glider
rule's image of Y as -ZYZ.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Literal, Sequence

from .automaton import ValidatedCqca
from .laurent import LaurentPoly
from .phase_space import _CODE_LETTER, site_letters
from .stabilizer import TIStabilizerState

Boundary = Literal["open", "ring"]


class BoundaryBreaksAutomorphism(ValueError):
    """The truncated open-chain images no longer satisfy the commutation relations."""


class GeneratorsDoNotCommute(ValueError):
    pass


class NotPure(ValueError):
    def __init__(self, rank_deficit: int):
        super().__init__(f"generator matrix is rank-deficient by {rank_deficit}")
        self.rank_deficit = rank_deficit


@dataclasses.dataclass(frozen=True)
class FiniteOperator:
    """A Pauli product on n_sites sites times i**phase_exp."""

    n_sites: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        full = (1 << self.n_sites) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("operator support exceeds the chain")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def identity(cls, n_sites: int) -> "FiniteOperator":
        return cls(n_sites, 0, 0, 0)

    @classmethod
    def single_site(cls, n_sites: int, site: int, letter: str) -> "FiniteOperator":
        """The Hermitian single-site Pauli with + sign."""
        if not 0 <= site < n_sites:
            raise ValueError(f"site {site} outside 0..{n_sites - 1}")
        if letter == "X":
            return cls(n_sites, 1 << site, 0, 0)
        if letter == "Z":
            return cls(n_sites, 0, 1 << site, 0)
        if letter == "Y":
            return cls(n_sites, 1 << site, 1 << site, 1)
        raise ValueError(f"unknown Pauli letter {letter!r}")

    @classmethod
    def hermitian(cls, n_sites: int, x_mask: int, z_mask: int, sign: int = 1) -> "FiniteOperator":
        """The Hermitian Pauli product sign * (tensor of letters)."""
        phase = (x_mask & z_mask).bit_count() % 4
        if sign == -1:
            phase += 2
        elif sign != 1:
            raise ValueError("sign must be +1 or -1")
        return cls(n_sites, x_mask, z_mask, phase)

    def __mul__(self, other: "FiniteOperator") -> "FiniteOperator":
        if self.n_sites != other.n_sites:
            raise ValueError("operators live on chains of different length")
        # Moving other's X block past self's Z block picks up one sign per overlap.
        crossings = (self.z_mask & other.x_mask).bit_count()
        return FiniteOperator(
            self.n_sites,
            self.x_mask ^ other.x_mask,
            self.z_mask ^ other.z_mask,
            self.phase_exp + other.phase_exp + 2 * crossings,
        )

    def commutes_with(self, other: "FiniteOperator") -> bool:
        crossings = (self.x_mask & other.z_mask).bit_count() + (
            self.z_mask & other.x_mask
        ).bit_count()
        return crossings % 2 == 0

    @property
    def support_size(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def hermitian_sign(self) -> int:
        """+1 or -1 for a Hermitian operator; raises otherwise."""
        y_count = (self.x_mask & self.z_mask).bit_count()
        if (self.phase_exp - y_count) % 2:
            raise ValueError("operator is i times a Hermitian Pauli product")
        return 1 if (self.phase_exp - y_count) % 4 == 0 else -1

    def letter_at(self, site: int) -> str:
        x_bit, z_bit = (self.x_mask >> site) & 1, (self.z_mask >> site) & 1
        return _CODE_LETTER[x_bit | z_bit << 1]

    def __str__(self) -> str:
        letters = site_letters(self.x_mask, self.z_mask, self.n_sites)
        try:
            prefix = {1: "+", -1: "-"}[self.hermitian_sign()]
        except ValueError:
            prefix = {1: "+i", 3: "-i"}[(self.phase_exp - (self.x_mask & self.z_mask).bit_count()) % 4]
        return prefix + letters


def global_y_parity(op: FiniteOperator) -> int:
    """Sign gained under conjugation by Y on every site: one -1 per X or Z factor."""
    return -1 if (op.x_mask ^ op.z_mask).bit_count() % 2 else 1


def _poly_to_mask(p: LaurentPoly, n_sites: int, boundary: Boundary) -> int:
    mask = 0
    for e in p.exponents():
        if boundary == "ring":
            mask ^= 1 << (e % n_sites)
        elif 0 <= e < n_sites:
            mask |= 1 << e
    return mask


@dataclasses.dataclass(frozen=True)
class FiniteRule:
    """Truncated one-site images of an automaton on a finite chain."""

    n_sites: int
    boundary: Boundary
    x_images: tuple[FiniteOperator, ...]
    z_images: tuple[FiniteOperator, ...]

    def image_of(self, site: int, letter: str) -> FiniteOperator:
        if letter == "X":
            return self.x_images[site]
        if letter == "Z":
            return self.z_images[site]
        if letter == "Y":
            product = self.x_images[site] * self.z_images[site]
            return dataclasses.replace(product, phase_exp=(product.phase_exp + 1) % 4)
        raise ValueError(f"unknown Pauli letter {letter!r}")


def truncate_rule(t: ValidatedCqca, n_sites: int, boundary: Boundary) -> FiniteRule:
    """Restrict the one-site images to a chain of n_sites sites.

    Open boundaries drop the tensor factors that fall off the ends; ring
    boundaries wrap exponents mod n_sites.  Open truncation is rejected
    with BoundaryBreaksAutomorphism when the cut images stop satisfying
    the commutation relations; no repaired boundary rule is attempted.
    """
    if boundary not in ("open", "ring"):
        raise ValueError(f"unknown boundary {boundary!r}")
    radius = t.matrix.max_entry_degree()
    if n_sites <= 2 * radius:
        raise ValueError(f"need more than {2 * radius} sites for this neighborhood")
    x_images = []
    z_images = []
    for site in range(n_sites):
        for images, column in (
            (x_images, (t.matrix.t11, t.matrix.t21)),
            (z_images, (t.matrix.t12, t.matrix.t22)),
        ):
            plus, minus = (p.shifted(site) for p in column)
            images.append(
                FiniteOperator.hermitian(
                    n_sites,
                    _poly_to_mask(plus, n_sites, boundary),
                    _poly_to_mask(minus, n_sites, boundary),
                )
            )
    rule = FiniteRule(n_sites, boundary, tuple(x_images), tuple(z_images))
    if not _is_automorphism(rule, radius):
        raise BoundaryBreaksAutomorphism(
            "cut one-site images violate the commutation relations"
        )
    return rule


def _generators(rule: FiniteRule) -> list[FiniteOperator]:
    return list(rule.x_images) + list(rule.z_images)


def _is_automorphism(rule: FiniteRule, radius: int) -> bool:
    """Check M^T J M = J: image symplectic products match the source ones.

    Each one-site image lies within radius sites of its source (cyclically
    on a ring), so images of sites more than 2 * radius apart have disjoint
    supports and commute, as their sources do; only nearer pairs are checked.
    The chain must be longer than 2 * radius, as truncate_rule ensures.
    """
    n = rule.n_sites
    xs, zs = rule.x_images, rule.z_images
    for a in range(n):
        # Source generators X_a, Z_b anticommute iff a == b.
        if xs[a].commutes_with(zs[a]):
            return False
        for b in range(a + 1, a + 2 * radius + 1):
            if b >= n:
                if rule.boundary == "open":
                    break
                b -= n
            for image in (xs[a], zs[a]):
                if not (image.commutes_with(xs[b]) and image.commutes_with(zs[b])):
                    return False
    return True


def rule_matrix(rule: FiniteRule) -> list[int]:
    """Columns of the 2N x 2N binary update matrix, each a 2N-bit int.

    Column j is the phase-space image of basis vector j, with bits
    0..N-1 the X part and bits N..2N-1 the Z part.
    """
    n = rule.n_sites
    return [op.x_mask | (op.z_mask << n) for op in _generators(rule)]


def step(rule: FiniteRule, op: FiniteOperator) -> FiniteOperator:
    """One automorphism step with full i-power phase tracking."""
    result = FiniteOperator(rule.n_sites, 0, 0, op.phase_exp)
    for site in range(rule.n_sites):
        if (op.x_mask >> site) & 1:
            result = result * rule.x_images[site]
        if (op.z_mask >> site) & 1:
            result = result * rule.z_images[site]
    return result


def evolve_finite(
    rule: FiniteRule, op: FiniteOperator, steps: int
) -> list[FiniteOperator]:
    """The operator after 0..steps applications of the rule."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    out = [op]
    for _ in range(steps):
        out.append(step(rule, out[-1]))
    return out


def invert_rule(rule: FiniteRule) -> FiniteRule:
    """The rule of the inverse automorphism, phases fixed by back-tracking.

    The mask action is inverted over F2; each inverse image's phase is
    then chosen so that one forward step maps it back onto the original
    single-site Pauli, sign included.
    """
    n = rule.n_sites
    inverse_cols = _invert_f2_matrix(rule_matrix(rule), 2 * n)
    x_images = []
    z_images = []
    for j, images in [(0, x_images), (n, z_images)]:
        for site in range(n):
            col = inverse_cols[j + site]
            bare = FiniteOperator(n, col & ((1 << n) - 1), col >> n)
            forward = step(rule, bare)
            target = FiniteOperator.single_site(n, site, "X" if j == 0 else "Z")
            images.append(
                dataclasses.replace(
                    bare,
                    phase_exp=(bare.phase_exp + target.phase_exp - forward.phase_exp) % 4,
                )
            )
    return FiniteRule(n, rule.boundary, tuple(x_images), tuple(z_images))


def mirror_time(rule: FiniteRule, site: int, letter: str) -> int | None:
    """Smallest step returning the single-site Pauli to the mirrored site.

    Searches up to 2N + 2 steps for the evolved operator to become
    single-site again at position N - 1 - site; None if that never
    happens within the cap.
    """
    if rule.boundary != "open":
        raise ValueError("mirroring is an open-boundary phenomenon")
    cap = 2 * rule.n_sites + 2
    mirrored = rule.n_sites - 1 - site
    op = FiniteOperator.single_site(rule.n_sites, site, letter)
    for k in range(1, cap + 1):
        op = step(rule, op)
        support = op.x_mask | op.z_mask
        if support.bit_count() == 1 and support == 1 << mirrored:
            return k
    return None


# -- F2 linear algebra -------------------------------------------------


def f2_rank(rows: Iterable[int]) -> int:
    """Rank over F2 of bitset-encoded row vectors."""
    basis: list[int] = []
    for row in rows:
        for pivot in basis:
            low = pivot & -pivot
            if row & low:
                row ^= pivot
        if row:
            basis.append(row)
    return len(basis)


def _invert_f2_matrix(columns: Sequence[int], dim: int) -> list[int]:
    """Invert a dim x dim F2 matrix given as bitset columns."""
    # Work on rows of [M | I]; row i starts as (bits of row i of M, e_i).
    rows = []
    for i in range(dim):
        m_row = 0
        for j, col in enumerate(columns):
            m_row |= ((col >> i) & 1) << j
        rows.append((m_row, 1 << i))
    for pivot_col in range(dim):
        pivot_row = next(
            (
                r
                for r in range(pivot_col, dim)
                if (rows[r][0] >> pivot_col) & 1
            ),
            None,
        )
        if pivot_row is None:
            raise ValueError("matrix is singular over F2")
        rows[pivot_col], rows[pivot_row] = rows[pivot_row], rows[pivot_col]
        for r in range(dim):
            if r != pivot_col and (rows[r][0] >> pivot_col) & 1:
                rows[r] = (rows[r][0] ^ rows[pivot_col][0], rows[r][1] ^ rows[pivot_col][1])
    # rows[i][1] is now row i of the inverse; transpose back to columns.
    inverse_cols = []
    for j in range(dim):
        col = 0
        for i in range(dim):
            col |= ((rows[i][1] >> j) & 1) << i
        inverse_cols.append(col)
    return inverse_cols


# -- ring-state entropy oracle -----------------------------------------


def generator_entropy(
    rows: Sequence[int], n_sites: int, region: Sequence[int]
) -> int:
    """Entanglement entropy from a full stabilizer generator matrix.

    Rows are 2N-bit phase-space vectors (X part low, Z part high) of the
    N generators of a pure state; the entropy of a site subset equals
    rank of the generator matrix restricted to those columns minus the
    subset size.
    """
    restricted = []
    for row in rows:
        sub = 0
        for k, site in enumerate(region):
            sub |= ((row >> site) & 1) << k
            sub |= ((row >> (site + n_sites)) & 1) << (k + len(region))
        restricted.append(sub)
    return f2_rank(restricted) - len(region)


def ring_translates(seed: TIStabilizerState, n_sites: int) -> list[int]:
    """The N wrapped generator rows of the seed on an n_sites ring."""
    rows = []
    for x in range(n_sites):
        shifted = seed.xi.shifted(x)
        rows.append(
            _poly_to_mask(shifted.xi_plus, n_sites, "ring")
            | (_poly_to_mask(shifted.xi_minus, n_sites, "ring") << n_sites)
        )
    return rows


def _check_ring_length(seed: TIStabilizerState, n_sites: int) -> None:
    if n_sites < 2 * (2 * seed.n + 1):
        raise ValueError("ring shorter than twice the generator length")


def _rotated(mask: int, shift: int, n_sites: int) -> int:
    """The n_sites-bit mask rotated toward higher bits by 0 <= shift < n_sites."""
    return ((mask << shift) | (mask >> (n_sites - shift))) & ((1 << n_sites) - 1)


def _prefix_ranks(
    seed: TIStabilizerState, n_sites: int, sites: Sequence[int]
) -> list[int]:
    """Ranks of the wrapped generator matrix restricted to each prefix of sites.

    sites lists every ring site once.  Translation invariance does the
    per-state work once: translates i and j commute iff 0 and (j - i) mod N
    do, and with translate -y as bit y, the column of site s is the
    wrapped seed row rotated down by s.  One incremental elimination over
    the columns in the given order then yields every prefix rank.  The
    translates must pairwise commute and be independent (pure state): the
    full rank must be n_sites.
    """
    row = [_poly_to_mask(p, n_sites, "ring") for p in (seed.xi.xi_plus, seed.xi.xi_minus)]
    x0, z0 = row
    for d in range(1, n_sites):
        crossings = (x0 & _rotated(z0, d, n_sites)).bit_count() + (
            z0 & _rotated(x0, d, n_sites)
        ).bit_count()
        if crossings % 2:
            raise GeneratorsDoNotCommute(f"translates 0 and {d} anticommute")
    # Basis columns keyed by their top bit.  Columns move down as s grows,
    # so a new column's top bit is usually free and its reduction short.
    pivots: dict[int, int] = {}
    ranks = [0]
    for s in sites:
        for part in row:
            v = _rotated(part, -s % n_sites, n_sites)
            while v:
                top = v.bit_length()
                if top not in pivots:
                    pivots[top] = v
                    break
                v ^= pivots[top]
        ranks.append(len(pivots))
    if ranks[-1] != n_sites:
        raise NotPure(n_sites - ranks[-1])
    return ranks


def ring_entropy_profile(seed: TIStabilizerState, n_sites: int) -> list[int]:
    """Exact ebit counts S([0, L)) for L = 0..n_sites on an n_sites ring.

    Read off one column-rank pass in site order (the clipped gauge of
    Nahum-Ruhman-Vijay-Haah): S = rank of the generators restricted to
    the region minus its size.  The ring must be at least twice the
    generator length so that wrapping cannot collapse generators onto each
    other.
    """
    _check_ring_length(seed, n_sites)
    ranks = _prefix_ranks(seed, n_sites, range(n_sites))
    return [rank - size for size, rank in enumerate(ranks)]


def ring_state_entropy(
    seed: TIStabilizerState, n_sites: int, region: Sequence[int]
) -> int:
    """Exact ebit count between a region and the rest of the ring.

    The region is a proper nonempty set of distinct sites in 0..N-1.  The
    rank pass runs over the region's sites first, then the rest; see
    ring_entropy_profile for the conditions on the seed and the ring.
    """
    _check_ring_length(seed, n_sites)
    region = list(region)
    if not 1 <= len(region) <= n_sites - 1:
        raise ValueError("region must be a proper nonempty subset of the ring")
    rest = set(range(n_sites))
    for site in region:
        if not 0 <= site < n_sites:
            raise ValueError(f"region site {site} outside 0..{n_sites - 1}")
        if site not in rest:
            raise ValueError(f"region site {site} is repeated")
        rest.remove(site)
    ranks = _prefix_ranks(seed, n_sites, region + sorted(rest))
    return ranks[len(region)] - len(region)
