"""Exact, phase-tracked Pauli dynamics on finite chains and rings.

Operators are two N-bit masks plus an exact power of i.  A rule is the
ring image pair of site 0 plus the pairs of the at most r cut sites at
each open end; a step (orbit_masks, under step and evolve_finite) maps
the run between the ends in one bit-sliced pass and multiplies on the end
images one by one, on raw (x_mask, z_mask, phase_exp) triples.  Ring entanglement is
measured by F2 ranks, an oracle independent of the symbolic closed forms: a seed of width w
is certified by the rank of its w - 1 wrap remainders, at most about w**2 / 2 steps on rows
of w - 1 bits, in memory linear in N.  A seed that fails the certificate, or is wider than
about half the ring, has its N wrapped translates eliminated instead.  One elimination,
_echelon, serves both: pivots keyed by their top bit in a list indexed by bit_length(), one
lookup a step.

Convention: an operator is i**phase_exp times (product of X factors)
times (product of Z factors), and the one-site images of X and Z are
fixed to be Hermitian with + sign.  This gauge reproduces the glider
rule's image of Y as -ZYZ.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Literal, Sequence

from . import stabilizer
from .automaton import ValidatedCqca
from .laurent import LaurentPoly, Record, spread_bits
from .phase_space import cell_rows, pauli_to_phase_space
from .stabilizer import TIStabilizerState

Boundary = Literal["open", "ring"]
Pair = tuple["FiniteOperator", "FiniteOperator"]  # the images of X_s and Z_s
Triple = tuple[int, int, int]  # (x_mask, z_mask, phase_exp) of an operator
_SIGNS = (b"+", b"+i", b"-", b"-i")  # i**k relative to the Hermitian product


class BoundaryBreaksAutomorphism(ValueError):
    """The truncated open-chain images no longer satisfy the commutation relations."""


class GeneratorsDoNotCommute(ValueError):
    pass


class NotPure(ValueError):
    def __init__(self, rank_deficit: int):
        super().__init__(f"generator matrix is rank-deficient by {rank_deficit}")
        self.rank_deficit = rank_deficit


class FiniteOperator(Record):
    """A Pauli product on n_sites sites times i**phase_exp."""

    __slots__ = ("n_sites", "x_mask", "z_mask", "phase_exp")

    def __init__(self, n_sites: int, x_mask: int, z_mask: int, phase_exp: int = 0):
        full = (1 << n_sites) - 1
        if x_mask & ~full or z_mask & ~full:
            raise ValueError("operator support exceeds the chain")
        super().__init__(n_sites, x_mask, z_mask, phase_exp % 4)

    @classmethod
    def identity(cls, n_sites: int) -> "FiniteOperator":
        return cls(n_sites, 0, 0, 0)

    @classmethod
    def single_site(cls, n_sites: int, site: int, letter: str) -> "FiniteOperator":
        """The Hermitian single-site Pauli with + sign."""
        if not 0 <= site < n_sites:
            raise ValueError(f"site {site} outside 0..{n_sites - 1}")
        if letter not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli letter {letter!r}")
        v = pauli_to_phase_space(letter)
        return cls.hermitian(n_sites, v.xi_plus.mask << site, v.xi_minus.mask << site)

    @classmethod
    def hermitian(cls, n_sites: int, x_mask: int, z_mask: int) -> "FiniteOperator":
        """The Hermitian Pauli product with + sign: i to the number of Y factors."""
        return cls(n_sites, x_mask, z_mask, (x_mask & z_mask).bit_count())

    def __mul__(self, other: "FiniteOperator") -> "FiniteOperator":
        if self.n_sites != other.n_sites:
            raise ValueError("operators live on chains of different length")
        return FiniteOperator(self.n_sites, *_mul(self.triple(), other.triple()))

    def triple(self) -> Triple:
        return self.x_mask, self.z_mask, self.phase_exp

    def commutes_with(self, other: "FiniteOperator") -> bool:
        return ((self.x_mask & other.z_mask) ^ (self.z_mask & other.x_mask)).bit_count() % 2 == 0

    def __str__(self) -> str:
        (sign,), (letters,) = labels([self.triple()], self.n_sites)
        return str(sign + letters, "ascii")


def labels(rows: Sequence[Triple], n_sites: int) -> tuple[list[bytes], list[memoryview]]:
    """The str of each (x_mask, z_mask, phase_exp) as ASCII columns: signs relative to the Hermitian
    product, and letters.  Each side's rows laid end to end, whole bytes a row, are one int; the
    Frobenius interleave x(u**2) + u z(u**2) of the two is the block packed for cell_rows."""
    size = (n_sites + 7) // 8 or 1
    x, z = (int.from_bytes(b"".join([mask.to_bytes(size, "little") for mask in masks]), "little")
            for masks in ([x for x, _, _ in rows], [z for _, z, _ in rows]))
    packed = (spread_bits(x) | spread_bits(z) << 1).to_bytes(2 * size * len(rows), "little")
    signs = [_SIGNS[(p - (x & z).bit_count()) % 4] for x, z, p in rows]
    return signs, cell_rows(packed, 2 * size, n_sites, b"1XZY")


def y_parity_bit(x_mask: int, z_mask: int) -> int:
    """1 iff conjugation by Y on every site flips the sign: an odd number of X and Z factors."""
    return (x_mask ^ z_mask).bit_count() & 1


def global_y_parity(op: FiniteOperator) -> int:
    """Sign gained under conjugation by Y on every site: one -1 per X or Z factor."""
    return 1 - 2 * y_parity_bit(op.x_mask, op.z_mask)


def _folded(p: LaurentPoly, n_sites: int) -> int:
    """The n_sites-bit mask of p with its exponents taken mod n_sites."""
    mask, folded = p.mask << p.min_exp % n_sites, 0
    while mask:
        folded, mask = folded ^ (mask & ((1 << n_sites) - 1)), mask >> n_sites
    return folded


def _rotated(mask: int, shift: int, n_sites: int, full: int) -> int:
    """The n_sites-bit mask rotated up by 0 <= shift < n_sites; full = (1 << n_sites) - 1."""
    return ((mask << shift) | (mask >> (n_sites - shift))) & full


class FiniteRule(Record):
    """An automaton on a finite chain: bulk, the ring image pair of site 0,
    rotated to each site but the stored pairs of sites 0..lo-1 (left) and
    hi..N-1 (right).  kernel = (lo, hi, phases, moves, pairs) is derived
    from bulk, phases being its i-powers.  step XORs the run's bits
    b[source] (0 = X, 1 = Z) rotated by shift into part p for each move
    (p, source, shift), and takes one sign per set bit of b[t] & (b[u] >> d)
    for each pair (t, u, d): the image of letter t has Z on an odd number
    of X sites of the image of letter u d sites on.
    """

    __slots__ = ("n_sites", "boundary", "bulk", "left", "right", "kernel")
    _fields = __slots__[:-1]

    def __init__(self, n_sites: int, boundary: Boundary, bulk: Pair,
                 left: tuple[Pair, ...] = (), right: tuple[Pair, ...] = ()):
        lo, hi = len(left), n_sites - len(right)
        if hi < lo:
            raise ValueError("end pairs cover more than the chain")
        bits = [[list(LaurentPoly(m).exponents()) for m in (k.x_mask, k.z_mask)] for k in bulk]
        moves = tuple((p, source, e) for source in (0, 1) for p in (0, 1) for e in bits[source][p])
        # Rotated images overlap according to their offset mod n alone; on a
        # short ring several bit pairs share an offset, so keep parities.
        pairs: set[tuple[int, int, int]] = set()
        for t, u in itertools.product((0, 1), repeat=2):
            for e, f in itertools.product(bits[t][1], bits[u][0]):
                d = (e - f) % n_sites
                # On one site the X factor comes first; run sites are < hi - lo apart.
                if (d or (t, u) == (0, 1)) and d < hi - lo:
                    pairs ^= {(t, u, d)}
        super().__init__(n_sites, boundary, bulk, left, right)
        object.__setattr__(self, "kernel", (lo, hi, tuple(k.phase_exp for k in bulk), moves, tuple(pairs)))

    def images(self, site: int) -> Pair:
        """The images of X_site and Z_site: an end pair, or bulk rotated to the site."""
        lo, hi = self.kernel[:2]
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} outside 0..{self.n_sites - 1}")
        if site < lo or site >= hi:
            return self.left[site] if site < lo else self.right[site - hi]
        n, full = self.n_sites, (1 << self.n_sites) - 1
        return tuple(FiniteOperator(n, _rotated(k.x_mask, site, n, full), _rotated(k.z_mask, site, n, full),
                                    k.phase_exp) for k in self.bulk)


def truncate_rule(t: ValidatedCqca, n_sites: int, boundary: Boundary) -> FiniteRule:
    """Restrict the one-site images to a chain of n_sites sites.

    A ring wraps exponents mod n_sites: its rule is the site-0 pair, never
    rejected.  An open chain drops the factors that fall off the ends and
    stores the cut pairs of the r sites nearest each end (r the radius);
    BoundaryBreaksAutomorphism rejects it when the cut images stop
    satisfying the commutation relations, and no repaired rule is tried.
    """
    if boundary not in ("open", "ring"):
        raise ValueError(f"unknown boundary {boundary!r}")
    radius = t.matrix.max_entry_degree()
    if n_sites <= 2 * radius:
        raise ValueError(f"need more than {2 * radius} sites for this neighborhood")
    columns = ((t.matrix.t11, t.matrix.t21), (t.matrix.t12, t.matrix.t22))

    def pair(mask) -> Pair:  # the Hermitian images of X and Z, entry p at the sites mask(p)
        return tuple(FiniteOperator.hermitian(n_sites, *map(mask, column)) for column in columns)

    bulk = pair(lambda p: _folded(p, n_sites))
    if boundary == "ring":
        return FiniteRule(n_sites, boundary, bulk)
    sites = [*range(radius), *range(n_sites - radius, n_sites)]
    ends = [pair(lambda p: p.coefficients(-s, n_sites)) for s in sites]
    # T is symplectic and translation invariant, so folding onto a ring adds
    # the forms omega(e_a, e_(b + jN)), zero for j != 0.  An open image with no
    # factor cut off keeps its forms, so only pairs of cut images, within
    # radius of an end, can break (X_a and Z_b anticommute iff a == b).
    for (a, (xa, za)), (b, (xb, zb)) in itertools.product(enumerate(ends), repeat=2):
        if xa.commutes_with(zb) == (a == b) or not (xa.commutes_with(xb) and za.commutes_with(zb)):
            raise BoundaryBreaksAutomorphism("cut one-site images violate the commutation relations")
    return FiniteRule(n_sites, boundary, bulk, tuple(ends[:radius]), tuple(ends[radius:]))


def _mul(a: Triple, b: Triple) -> Triple:
    """The product a b: moving b's X block past a's Z block picks up one sign per overlap."""
    return a[0] ^ b[0], a[1] ^ b[1], a[2] + b[2] + 2 * (a[1] & b[0]).bit_count()


def _times_ends(acc: Triple, ends: Sequence[Pair], x: int, z: int, lo: int) -> Triple:
    """acc times the images of the factors of (x, z) on the end sites lo, lo + 1, ..., in order."""
    for site, images in enumerate(ends, lo):
        for image, bit in zip(images, (x >> site, z >> site)):
            if bit & 1:
                acc = _mul(acc, image.triple())
    return acc


def orbit_masks(rule: FiniteRule, op: FiniteOperator, steps: int) -> Iterator[Triple]:
    """(x_mask, z_mask, phase_exp) of op after 0..steps steps, with full i-power phase tracking.

    Each step maps the kernel's run in one pass, in the affine-plus-quadratic
    form of a Clifford step: masks by an XOR of rotations, the phase by
    popcounts.  The end sites' images are multiplied on one at a time,
    as prefix * bulk * suffix in site order.  No operator is built.
    """
    n, (lo, hi, phases, moves, pairs) = rule.n_sites, rule.kernel
    run, left, full = (1 << hi) - (1 << lo), (1 << lo) - 1, (1 << n) - 1
    x, z, phase = op.triple()
    for _ in range(steps):
        yield x, z, phase
        b = (x & run, z & run)
        out = [0, 0]
        for part, source, shift in moves:
            out[part] ^= b[source] << shift
        crossings = 0
        for t, u, d in pairs:
            crossings ^= b[t] & (b[u] >> d)
        xs, zs = out  # a rotation wraps at most once: fold each sum, not each shift
        bulk = ((xs ^ xs >> n) & full, (zs ^ zs >> n) & full,
                phase + phases[0] * b[0].bit_count() + phases[1] * b[1].bit_count() + 2 * crossings.bit_count())
        if (x | z) & left:
            bulk = _mul(_times_ends((0, 0, 0), rule.left, x, z, 0), bulk)
        x, z, phase = _times_ends(bulk, rule.right, x, z, hi) if rule.right else bulk  # a ring has no ends
        phase %= 4
    yield x, z, phase


def step(rule: FiniteRule, op: FiniteOperator) -> FiniteOperator:
    """One automorphism step with full i-power phase tracking; see orbit_masks."""
    _, image = orbit_masks(rule, op, 1)
    return FiniteOperator(rule.n_sites, *image)


def evolve_finite(rule: FiniteRule, op: FiniteOperator, steps: int) -> list[FiniteOperator]:
    """The operator after 0..steps applications of the rule."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return [FiniteOperator(rule.n_sites, *image) for image in orbit_masks(rule, op, steps)]


def invert_rule(rule: FiniteRule) -> FiniteRule:
    """The rule of the inverse automorphism, phases fixed by back-tracking.

    For symplectic M (truncate_rule ensures it), M^-1 = Omega M^T Omega,
    Omega swapping the X and Z halves: the inverse image of X_s has X (Z)
    bit k where the image of Z_k (X_k) has Z on site s; that of Z_s reads
    X on site s.  Each phase makes one forward step return X_s or Z_s with
    + sign; a step landing elsewhere means M is not symplectic (ValueError).
    Checked at every site, M is symplectic, so an inverse image gathers the
    images within the bulk's reach r (its farthest move) of its site: each
    open end of the inverse is r sites wider (a ring has none), and its bulk
    is the pair of its first run site rotated back to site 0.
    """
    n = rule.n_sites
    # rows[part][source][s] has bit k where the image of source_k has part on site s.
    rows = [[[0] * n for _ in "XZ"] for _ in "XZ"]
    for k in range(n):
        for source, image in enumerate(rule.images(k)):
            for part, mask in enumerate((image.x_mask, image.z_mask)):
                for s in LaurentPoly(mask).exponents():
                    rows[part][source][s] |= 1 << k
    inverse = []
    for part in (1, 0):
        for site in range(n):
            x, z = rows[part][1][site], rows[part][0][site]
            forward = step(rule, FiniteOperator(n, x, z))
            if (forward.x_mask, forward.z_mask) != (part << site, (1 - part) << site):
                raise ValueError("the rule's update matrix is not symplectic")
            inverse.append(FiniteOperator(n, x, z, -forward.phase_exp))
    pairs = list(zip(inverse[:n], inverse[n:]))
    reach = max((min(e, n - e) for *_, e in rule.kernel[3]), default=0) if rule.left or rule.right else 0
    lo = min(len(rule.left) + reach, n)
    hi = max(n - len(rule.right) - reach, lo)
    anchor = min(lo, n - 1)
    # Moved back to site 0, the anchor's pair is that of site N - anchor on the ring rule it spans.
    bulk = FiniteRule(n, "ring", pairs[anchor]).images(-anchor % n)
    return FiniteRule(n, rule.boundary, bulk, tuple(pairs[:lo]), tuple(pairs[hi:]))


def mirror_time(rule: FiniteRule, site: int, letter: str) -> int | None:
    """Smallest step returning the single-site Pauli to the mirrored site.

    Searches up to 2N + 2 steps for the evolved operator to become
    single-site again at position N - 1 - site; None if that never
    happens within the cap.
    """
    if rule.boundary != "open":
        raise ValueError("mirroring is an open-boundary phenomenon")
    op, target = FiniteOperator.single_site(rule.n_sites, site, letter), 1 << (rule.n_sites - 1 - site)
    images = orbit_masks(rule, op, 2 * rule.n_sites + 2)
    return next((k for k, (x, z, _) in enumerate(images) if k and x | z == target), None)


# -- F2 linear algebra -------------------------------------------------


def _echelon(rows: Iterable[int], pivots: list[int]) -> list[int]:
    """Extend the echelon basis ``pivots`` (in place) by the rows, and return it.

    pivots[k] is 0 or the pivot whose top bit is bit k - 1: a row's bit_length() is its key, read
    by one lookup a step, and the list must be longer than every row.  Each pivot clears its top
    bit and changes only lower ones; a row reduced to 0 lands in pivots[0], which stays 0.
    """
    for v in rows:
        while pivot := pivots[top := v.bit_length()]:
            v ^= pivot
        pivots[top] = v
    return pivots


def _rank(pivots: list[int]) -> int:
    return len(pivots) - pivots.count(0)


def f2_rank(rows: list[int]) -> int:
    """Rank over F2 of bitset-encoded row vectors.

    Callers pass a list: perfbench's tracer counts rows by its length.
    """
    return _rank(_echelon(rows, [0] * (max(map(int.bit_length, rows), default=0) + 1)))


# -- ring-state entropy oracle -----------------------------------------


def _ring_fits(seed: TIStabilizerState, n_sites: int) -> bool:
    return n_sites >= 2 * (2 * seed.n + 1)


def _check_ring_length(seed: TIStabilizerState, n_sites: int) -> None:
    if not _ring_fits(seed, n_sites):
        raise ValueError("ring shorter than twice the generator length")


def _checked_row(seed: TIStabilizerState, n_sites: int) -> tuple[int, int]:
    """(row, w): the seed from its lowest site, site s at bits 2s (X) and 2s + 1 (Z), exponents
    mod 2N, and its width, once checked: translate y is row rotated by 2y, and translates i and j
    commute iff 0 and j - i do, which can fail only where supports overlap, min(d, N - d) < w.
    """
    n, full = n_sites, (1 << 2 * n_sites) - 1
    row = _folded(LaurentPoly(seed.xi.frame()[0]), 2 * n)
    w = (row.bit_length() + 1) // 2
    swapped = (row & full // 3) << 1 | (row >> 1) & full // 3  # X and Z exchanged on every site
    for d in range(1, w):
        if (row & _rotated(swapped, 2 * d, 2 * n, full)).bit_count() % 2:
            raise GeneratorsDoNotCommute(f"translates 0 and {d} anticommute")
    return row, w


def _wrap_remainders(row: int, w: int) -> list[int]:
    """D_1..D_(w-1): translate N - j, divided from the low end by translates 0..N-w (pivots on
    P's bits, P the component set on site 0 and Q the other), is D_j / P on Q's bits of sites
    0..N-w, where D_0 = 0 and D_(j+1) = (D_j + p_j Q + q_j P) / u exactly (D_1 = 0, so the
    certificate fails, if a wrap of a seed wider than the ring has cleared site 0).
    """
    digits = format(row, f"0{2 * w}b")  # z, x digit pairs, top site first
    x, z = int("0" + digits[1::2], 2), int("0" + digits[::2], 2)  # P, Q in either order: p_j Q + q_j P is symmetric
    remainders = [0]
    for j in range(w - 1):
        remainders.append((remainders[-1] ^ (z if x >> j & 1 else 0) ^ (x if z >> j & 1 else 0)) >> 1)
    return remainders[1:]


def _ring_basis(row: int, w: int, n_sites: int) -> list[int]:
    """Echelon basis, as _echelon's list, of the N wrapped translates of a _checked_row, which must
    have N rows (pure).

    Translates y <= N - w are row << 2y, each keyed at its own top bit, so only the w - 1
    that wrap are eliminated: the keys of a top-bit echelon depend only on the span.
    """
    n, full, top = n_sites, (1 << 2 * n_sites) - 1, row.bit_length()
    inside = n + 1 - w if row else 0  # translates 0..inside-1 do not wrap
    pivots = [0] * (2 * n + 1)
    pivots[top:top + 2 * inside:2] = [row << 2 * y for y in range(inside)]
    deficit = n - _rank(_echelon((_rotated(row, 2 * y, 2 * n, full) for y in range(inside, n)), pivots))
    if deficit:
        raise NotPure(deficit)
    return pivots


def ring_entropy_profile(seed: TIStabilizerState, n_sites: int) -> list[int]:
    """Exact ebit counts S([0, L)) for L = 0..n_sites on an n_sites ring.

    S is the rank of the generators restricted to the region minus its
    size.  Row operations keep the rank of every set of columns, and in
    echelon form (the clipped gauge of Nahum-Ruhman-Vijay-Haah) keyed by
    lowest bits the columns of sites 0..L-1 have rank equal to the number of pivots on them.
    If the w - 1 wrap remainders have full rank and 2w <= N + 2, the pivots are P's bits of
    sites 0..N-w and Q's of sites 0..w-2, so S = min(L, w - 1, N - L).  Else the N translates
    are eliminated by _echelon, keyed by top bits: its pivots on the top L sites count their
    rank, and S([0, L)) = S([N - L, N)) for the pure, translation-invariant state.
    The ring must be at least twice the generator length so that wrapping
    cannot collapse generators onto each other.
    """
    _check_ring_length(seed, n_sites)
    row, w = _checked_row(seed, n_sites)
    if 2 * w <= n_sites + 2 and f2_rank(_wrap_remainders(row, w)) == w - 1:
        return [*range(w - 1), *[w - 1] * (n_sites + 3 - 2 * w), *range(w - 2, -1, -1)]  # min(L, w - 1, N - L)
    basis = _ring_basis(row, w, n_sites)  # site s holds the pivots keyed 2s + 1 (X) and 2s + 2 (Z)
    ranks = itertools.accumulate(((x > 0) + (z > 0) for x, z in zip(basis[-2::-2], basis[::-2])), initial=0)
    return [rank - size for size, rank in enumerate(ranks)]


def oracle_sweep(t: ValidatedCqca, steps: int, n_sites: int, sizes: Sequence[int]) -> Iterator[tuple]:
    """(step, state, size, S([0, size))) of the ring oracle along the all-spins-up orbit.

    S is read off ring_entropy_profile for the sizes in the window
    2n <= size <= n_sites - 2n - 2; the sweep stops at the first state
    too long for the ring, so no later frame is built.
    """
    for k, frame in enumerate(t.orbit(stabilizer.all_spins_up().xi, steps)):
        state = stabilizer._frame_state(*frame)
        if not _ring_fits(state, n_sites):
            return
        fitting = [size for size in sizes if 2 * state.n <= size <= n_sites - 2 * state.n - 2]
        if fitting:
            profile = ring_entropy_profile(state, n_sites)
            for size in fitting:
                yield k, state, size, profile[size]


def ring_state_entropy(
    seed: TIStabilizerState, n_sites: int, region: Sequence[int]
) -> int:
    """Exact ebit count between a region and the rest of the ring.

    The region is a proper nonempty set of distinct sites in 0..N-1; the
    count is the rank of the basis rows masked to its bits minus its size.
    See ring_entropy_profile for the conditions on the seed and the ring.
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
    bits = sum(3 << 2 * site for site in region)
    rows = _ring_basis(*_checked_row(seed, n_sites), n_sites)
    return f2_rank([row & bits for row in rows if row]) - len(region)
