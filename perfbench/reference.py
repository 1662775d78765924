"""Independent reference for the benchmark's output checks.

Nothing here imports cqcalab.  A Laurent polynomial over F2 is a pair
``(mask, low)`` of plain ints: bit k of ``mask`` is the coefficient of
``u**(low + k)``.  Nonzero polynomials keep bit 0 of the mask set, so equal
polynomials are equal pairs; zero is ``(0, 0)``.  The arithmetic uses only
shifts and XOR.

Orbits come from Cayley-Hamilton instead of repeated matrix products.  A
centred automaton matrix T has det T = 1, so over F2 T^2 = tr T * T + I and

    T^t = a_t T + b_t I,  a_0 = 0, b_0 = 1,  a_{t+1} = tr a_t + b_t,  b_{t+1} = a_t.

The matrix-vector product ``apply`` is kept for the self-test, which
compares the two at small t.
"""

from __future__ import annotations

ZERO = (0, 0)
ONE = (1, 0)


def _normalized(mask: int, low: int) -> tuple[int, int]:
    if not mask:
        return ZERO
    digits = bin(mask)
    trailing = len(digits) - len(digits.rstrip("0"))
    return mask >> trailing, low + trailing


def parse(text: str) -> tuple[int, int]:
    """Parse "0" or a "+"-separated sum of "1", "u" and "u^k"; repeats cancel."""
    text = text.replace(" ", "")
    if text == "0":
        return ZERO
    total = ZERO
    for term in text.split("+"):
        if term == "1":
            exponent = 0
        elif term == "u":
            exponent = 1
        elif term.startswith("u^"):
            exponent = int(term[2:])
        else:
            raise ValueError(f"bad polynomial term {term!r}")
        total = add(total, (1, exponent))
    return total


def add(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    if not p[0]:
        return q
    if not q[0]:
        return p
    low = min(p[1], q[1])
    return _normalized((p[0] << (p[1] - low)) ^ (q[0] << (q[1] - low)), low)


def mul(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    if not p[0] or not q[0]:
        return ZERO
    a, b = p[0], q[0]
    if bin(a).count("1") > bin(b).count("1"):
        a, b = b, a
    product = 0
    for shift, digit in enumerate(reversed(bin(a)[2:])):
        if digit == "1":
            product ^= b << shift
    return _normalized(product, p[1] + q[1])


def top(p: tuple[int, int]) -> int:
    """Highest exponent of a nonzero polynomial."""
    if not p[0]:
        raise ValueError("the zero polynomial has no highest exponent")
    return p[1] + p[0].bit_length() - 1


def _apply(entries, xi):
    e11, e12, e21, e22 = entries
    plus, minus = xi
    return add(mul(e11, plus), mul(e12, minus)), add(mul(e21, plus), mul(e22, minus))


class Matrix:
    """A centred automaton matrix [[t11, t12], [t21, t22]] given by entry text."""

    def __init__(self, t11: str, t12: str, t21: str, t22: str):
        self.entries = tuple(parse(text) for text in (t11, t12, t21, t22))
        e11, e12, e21, e22 = self.entries
        if add(mul(e11, e22), mul(e12, e21)) != ONE:
            raise ValueError("determinant is not 1; the matrix is not centred")
        self.trace = add(e11, e22)

    def apply(self, xi):
        """Direct matrix-vector product on a phase-space pair (plus, minus)."""
        return _apply(self.entries, xi)

    def coefficients(self, steps: int):
        """Yield (a_t, b_t) with T^t = a_t T + b_t I for t = 0..steps."""
        a, b = ZERO, ONE
        for _ in range(steps + 1):
            yield a, b
            a, b = add(mul(self.trace, a), b), a

    def power(self, k: int) -> tuple:
        """Entries (t11, t12, t21, t22) of T^k."""
        for a, b in self.coefficients(k):
            pass
        e11, e12, e21, e22 = self.entries
        return add(mul(a, e11), b), mul(a, e12), mul(a, e21), add(mul(a, e22), b)

    def image(self, xi, k: int):
        """T^k xi from the entries of T^k."""
        return _apply(self.power(k), xi)

    def orbit(self, xi, steps: int):
        """Yield xi_t = T^t xi = a_t (T xi) + b_t xi for t = 0..steps."""
        image = self.apply(xi)
        for a, b in self.coefficients(steps):
            yield add(mul(a, image[0]), mul(b, xi[0])), add(mul(a, image[1]), mul(b, xi[1]))


# Entry texts (t11, t12, t21, t22) of the program's built-in automata.
BUILTIN_ENTRIES = {"fractal": ("u^-1 + 1 + u", "1", "1", "0"), "glider": ("0", "1", "1", "u^-1 + u")}
FRACTAL = Matrix(*BUILTIN_ENTRIES["fractal"])
GLIDER = Matrix(*BUILTIN_ENTRIES["glider"])

_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1), "1": (0, 0)}
_DIGITS_LETTER = {(str(x), str(z)): letter for letter, (x, z) in _LETTER_BITS.items()}


def observable(text: str) -> tuple:
    """Phase-space pair of a literal like "ZYX@-1" (first letter at the offset)."""
    word, _, offset = text.partition("@")
    start = int(offset) if offset else 0
    plus = minus = ZERO
    for site, letter in enumerate(word, start):
        x_bit, z_bit = _LETTER_BITS[letter]
        if x_bit:
            plus = add(plus, (1, site))
        if z_bit:
            minus = add(minus, (1, site))
    return plus, minus


def half_length(xi) -> int:
    """n = dg xi: the highest exponent over both components."""
    return max(top(p) for p in xi if p[0])


def support(xi) -> tuple[int, int]:
    lows = [p[1] for p in xi if p[0]]
    return min(lows), half_length(xi)


def window_bits(p: tuple[int, int], left: int, width: int) -> int:
    """Coefficients on sites left .. left + width - 1 as a width-bit mask."""
    if not p[0]:
        return 0
    if p[1] < left or top(p) >= left + width:
        raise ValueError("polynomial reaches outside the window")
    return p[0] << (p[1] - left)


def letters(xi, left: int, width: int) -> str:
    """Letters over {1, X, Y, Z} on sites left .. left + width - 1."""
    plus = format(window_bits(xi[0], left, width), f"0{width}b")[::-1]
    minus = format(window_bits(xi[1], left, width), f"0{width}b")[::-1]
    return "".join(map(_DIGITS_LETTER.__getitem__, zip(plus, minus)))


def fold(p: tuple[int, int], n_sites: int) -> int:
    """Reduce exponents mod n_sites (the ring u^N = 1) as an N-bit mask."""
    if not p[0]:
        return 0
    mask = p[0] << (p[1] % n_sites)
    folded = 0
    while mask:
        folded ^= mask & ((1 << n_sites) - 1)
        mask >>= n_sites
    return folded


def ring_letters(xi, n_sites: int) -> str:
    """Letters of xi folded onto a ring of n_sites sites, site 0 first."""
    folded = tuple(_normalized(fold(p, n_sites), 0) for p in xi)
    return letters(folded, 0, n_sites)
