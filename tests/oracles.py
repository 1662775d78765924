"""Independent brute-force implementations used as test oracles.

Everything here works on exponent sets / dicts with naive loops and
never touches the bitset code paths it checks; the finite-chain step
moves a rule's bulk pair to each site bit by bit and multiplies the
one-site images with FiniteOperator.__mul__, site by site, and
prefix_ranks checks the ring oracle's row elimination by an independent
column-rank pass.  reference_rank is a pivot-list elimination, and
generator_entropy over ring_translates is the ring oracle from the full
generator matrix.  diagram_per_cell writes a space-time diagram one cell
at a time from term sets stepped by matvec_terms.  orbit_half_lengths reads
n off every orbit frame, the walk that the trajectory's closed form replaces.
"""

import functools

from cqcalab.finite_chain import FiniteOperator, GeneratorsDoNotCommute, NotPure
from cqcalab.laurent import LaurentPoly


def to_terms(p: LaurentPoly) -> frozenset[int]:
    return frozenset(p.exponents())


def from_terms(terms) -> LaurentPoly:
    return LaurentPoly.from_exponents(terms)


def xor_terms(a, b) -> frozenset[int]:
    """Term-multiset addition mod 2."""
    return frozenset(set(a) ^ set(b))


def convolve_terms(a, b) -> frozenset[int]:
    """Naive double-loop convolution with mod-2 cancellation."""
    counts: dict[int, int] = {}
    for e in a:
        for f in b:
            counts[e + f] = counts.get(e + f, 0) + 1
    return frozenset(e for e, c in counts.items() if c % 2)


def remainder_terms(a, b) -> frozenset[int]:
    """Naive long division of term sets, each shifted to lowest exponent 0.

    The remainder is empty iff b divides a in the Laurent ring, whose
    units are the monomials u**k.
    """
    a_low, b_low = min(a, default=0), min(b)
    rest = {e - a_low for e in a}
    divisor = [e - b_low for e in b]
    top = max(divisor)
    while rest and max(rest) >= top:
        shift = max(rest) - top
        rest ^= {e + shift for e in divisor}
    return frozenset(rest)


def reflect_terms(terms, center: int) -> frozenset[int]:
    return frozenset(2 * center - e for e in terms)


def scalar_product_terms(a, b) -> int:
    return len(set(a) & set(b)) % 2


def matvec_terms(matrix, vector):
    """2x2 matrix-vector product on term sets; independent apply route."""
    (m11, m12), (m21, m22) = matrix
    v1, v2 = vector
    return (
        xor_terms(convolve_terms(m11, v1), convolve_terms(m12, v2)),
        xor_terms(convolve_terms(m21, v1), convolve_terms(m22, v2)),
    )


def matmul_terms(a, b):
    """2x2 matrix product on term sets."""
    (a11, a12), (a21, a22) = a
    (b11, b12), (b21, b22) = b
    return (
        (
            xor_terms(convolve_terms(a11, b11), convolve_terms(a12, b21)),
            xor_terms(convolve_terms(a11, b12), convolve_terms(a12, b22)),
        ),
        (
            xor_terms(convolve_terms(a21, b11), convolve_terms(a22, b21)),
            xor_terms(convolve_terms(a21, b12), convolve_terms(a22, b22)),
        ),
    )


def matrix_terms(m):
    """Term-set view of a CqcaMatrix."""
    return (
        (to_terms(m.t11), to_terms(m.t12)),
        (to_terms(m.t21), to_terms(m.t22)),
    )


# A diagram cell's ASCII character and PPM pixel, by (X bit, Z bit): 1, X, Y, Z.
DIAGRAM_CELLS = {
    (0, 0): (b".", (255, 255, 255)),
    (1, 0): (b"X", (255, 0, 0)),
    (1, 1): (b"Y", (0, 255, 0)),
    (0, 1): (b"Z", (0, 0, 255)),
}


def diagram_per_cell(matrix, vector, steps, format):
    """Reference for render: the ASCII or PPM diagram of vector, M vector, ..., M**steps vector.

    matrix and vector are term sets (see matrix_terms).  The window is the
    union of the rows' supports padded by one site on each side, or sites
    -1..1 when every row is the identity; each cell is written on its own.
    """
    rows = [vector]
    for _ in range(steps):
        rows.append(matvec_terms(matrix, rows[-1]))
    return rows_per_cell(rows, format)


def rows_per_cell(rows, format):
    """The ASCII or PPM diagram of given rows (X term set, Z term set), on the same window."""
    sites = set().union(*(set(x) | set(z) for x, z in rows))
    left, right = (min(sites) - 1, max(sites) + 1) if sites else (-1, 1)
    out = bytearray()
    if format == "ppm":
        out += f"P6\n{right - left + 1} {len(rows)}\n255\n".encode("ascii")
    for x, z in rows:
        for site in range(left, right + 1):
            char, pixel = DIAGRAM_CELLS[site in x, site in z]
            out += bytes(pixel) if format == "ppm" else char
        if format == "ascii":
            out += b"\n"
    return bytes(out)


def letter_at(op, site):
    """The Pauli letter of a FiniteOperator on one site."""
    return "1XZY"[(op.x_mask >> site) & 1 | ((op.z_mask >> site) & 1) << 1]


@functools.lru_cache(maxsize=16)
def rule_images(rule):
    """Every site's (X image, Z image): the stored end pairs, and the bulk pair moved bit by bit between them.

    Cached per rule, since step_per_site walks whole evolutions of one rule.
    """
    n = rule.n_sites
    bits = [[[e for e in range(n) if (mask >> e) & 1] for mask in (k.x_mask, k.z_mask)] for k in rule.bulk]

    def moved(site):
        return tuple(
            FiniteOperator(n, *(sum(1 << ((e + site) % n) for e in sites) for sites in parts), k.phase_exp)
            for k, parts in zip(rule.bulk, bits)
        )

    return (*rule.left, *map(moved, range(len(rule.left), n - len(rule.right))), *rule.right)


def step_per_site(rule, op):
    """Reference for finite_chain.step: the one-site images multiplied in site order."""
    result = FiniteOperator(rule.n_sites, 0, 0, op.phase_exp)
    for site, (x_image, z_image) in enumerate(rule_images(rule)):
        if (op.x_mask >> site) & 1:
            result = result * x_image
        if (op.z_mask >> site) & 1:
            result = result * z_image
    return result


def orbit_per_site(rule, op, steps):
    """Reference for finite_chain.orbit_masks: (x_mask, z_mask, phase_exp) of op stepped by step_per_site."""
    for _ in range(steps):
        yield op.x_mask, op.z_mask, op.phase_exp
        op = step_per_site(rule, op)
    yield op.x_mask, op.z_mask, op.phase_exp


def reference_rank(rows):
    """Rank over F2 of bitset rows: each row is reduced by every earlier pivot's lowest bit."""
    basis = []
    for row in rows:
        for pivot in basis:
            low = pivot & -pivot
            if row & low:
                row ^= pivot
        if row:
            basis.append(row)
    return len(basis)


def wrapped(p, n_sites):
    """The n_sites-bit mask of a polynomial with exponents taken mod n_sites."""
    mask = 0
    for e in p.exponents():
        mask ^= 1 << (e % n_sites)
    return mask


def ring_translates(seed, n_sites):
    """The N wrapped generator rows of the seed on an n_sites ring: X part low, Z part high."""
    rows = []
    for x in range(n_sites):
        shifted = seed.xi.shifted(x)
        rows.append(wrapped(shifted.xi_plus, n_sites) | wrapped(shifted.xi_minus, n_sites) << n_sites)
    return rows


def generator_entropy(rows, n_sites, region):
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
    return reference_rank(restricted) - len(region)


def prefix_ranks(seed, n_sites, sites):
    """Reference for the ring oracle: ranks of the wrapped translates on each prefix of sites.

    sites lists every ring site once.  With translate -y as bit y, the
    column of site s is the wrapped seed row rotated down by s, and one
    incremental elimination over the columns in the given order yields
    every prefix rank.  Every offset's commutation is checked, and the full
    rank must be n_sites.
    """
    full = (1 << n_sites) - 1

    def rotated(mask, shift):
        return ((mask << shift) | (mask >> (n_sites - shift))) & full

    row = (wrapped(seed.xi.xi_plus, n_sites), wrapped(seed.xi.xi_minus, n_sites))
    x0, z0 = row
    for d in range(1, n_sites):
        if ((x0 & rotated(z0, d)).bit_count() + (z0 & rotated(x0, d)).bit_count()) % 2:
            raise GeneratorsDoNotCommute(f"translates 0 and {d} anticommute")
    # Basis columns keyed by their top bit.
    pivots = {}
    ranks = [0]
    for s in sites:
        for part in row:
            v = rotated(part, -s % n_sites)
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


def orbit_half_lengths(t, xi, steps):
    """n_0 .. n_steps, each the highest site of one frame of ``t.orbit(xi, steps)``."""
    return [base + (c.bit_length() + 1) // 2 - 1 for c, base in t.orbit(xi, steps)]
