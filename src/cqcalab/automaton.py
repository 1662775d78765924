"""Symplectic cellular automaton matrices over the F2 Laurent ring.

A 2x2 matrix of Laurent polynomials describes a Clifford cellular
automaton up to phase: column 1 is the image of X = (1, 0), column 2 the
image of Z = (0, 1).  Validation enforces the three automorphism
conditions (monomial determinant of even shift, entries mirror-symmetric
about a common center, coprime columns), centers the matrix, and tags it
with its dynamical class read off the trace.
"""

from __future__ import annotations

import random as _random
from typing import Iterator

from .laurent import LaurentPoly, PolySyntaxError, Record, clmul, gcd, parse_poly, render_poly, spread_bits
from .phase_space import PhaseVector


class CqcaValidationError(ValueError):
    """A matrix violated one of the automaton conditions."""


class DetNotMonomial(CqcaValidationError):
    pass


class DetOddShift(CqcaValidationError):
    pass


class EntriesNotSymmetric(CqcaValidationError):
    def __init__(self, center: int):
        super().__init__(f"entries are not mirror-symmetric about site {center}")
        self.center = center


class ColumnsNotCoprime(CqcaValidationError):
    def __init__(self, column: int):
        super().__init__(f"entries of column {column} share a nontrivial divisor")
        self.column = column


class PureShift(CqcaValidationError):
    """The raw matrix is u**a times the identity, i.e. a bare lattice shift."""


class Periodic(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "Periodic"


class Glider(Record):
    __slots__ = ("speed",)

    def __str__(self) -> str:
        return f"Glider({self.speed})"


class Fractal(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "Fractal"


ClassTag = Periodic | Glider | Fractal


class CqcaMatrix(Record):
    """Raw, unvalidated 2x2 Laurent-polynomial matrix."""

    __slots__ = ("t11", "t12", "t21", "t22")

    @classmethod
    def from_strings(cls, t11: str, t12: str, t21: str, t22: str) -> "CqcaMatrix":
        return cls(*map(_parse_entry, _KEYS, (t11, t12, t21, t22)))

    def det(self) -> LaurentPoly:
        return self.t11 * self.t22 + self.t12 * self.t21

    def trace(self) -> LaurentPoly:
        return self.t11 + self.t22

    def __matmul__(self, other: "CqcaMatrix") -> "CqcaMatrix":
        return CqcaMatrix(
            _dot(self.t11, other.t11, self.t12, other.t21),
            _dot(self.t11, other.t12, self.t12, other.t22),
            _dot(self.t21, other.t11, self.t22, other.t21),
            _dot(self.t21, other.t12, self.t22, other.t22),
        )

    def entries(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return self.t11, self.t12, self.t21, self.t22

    def max_entry_degree(self) -> int:
        """Largest |exponent| over all entries; the neighborhood radius."""
        return max((abs(e) for p in self.entries() if p for e in p.degree_span()), default=0)

    def __str__(self) -> str:
        return "[[{}, {}], [{}, {}]]".format(*map(render_poly, self.entries()))


def _dot(p: LaurentPoly, x: LaurentPoly, q: LaurentPoly, z: LaurentPoly) -> LaurentPoly:
    """p*x + q*z, normalised once: a zero product takes the other's offset, so no shift is undone."""
    px, qz = clmul(p.mask, x.mask), clmul(q.mask, z.mask)
    e = p.min_exp + x.min_exp if px else q.min_exp + z.min_exp
    f = q.min_exp + z.min_exp if qz else e
    lo = min(e, f)
    return LaurentPoly(px << e - lo ^ qz << f - lo, lo)


def center(m: CqcaMatrix, a: int) -> CqcaMatrix:
    """Multiply every entry by u**-a, undoing a shift by a sites."""
    return CqcaMatrix(*(p.shifted(-a) for p in m.entries()))


def classify(m: CqcaMatrix) -> ClassTag:
    """Read the dynamical class off the trace of a centered matrix; see classify_trace."""
    return classify_trace(m.trace())


def classify_trace(tr: LaurentPoly) -> ClassTag:
    """The dynamical class of a centered matrix with trace tr.

    Constant trace: periodic.  Trace u**-n + u**n: gliders moving n sites
    per step.  Anything else: fractal space-time behavior.
    """
    if tr.is_zero or (tr.mask == 1 and tr.min_exp == 0):
        return Periodic()
    span = tr.degree_span()
    if span is not None and tr.mask.bit_count() == 2 and span[0] == -span[1]:
        return Glider(span[1])
    return Fractal()


class ValidatedCqca(Record):
    """A centered automaton matrix with its class tag."""

    __slots__ = ("matrix", "class_tag")

    def apply(self, v: PhaseVector) -> PhaseVector:
        m, x, z = self.matrix, v.xi_plus, v.xi_minus
        return PhaseVector(_dot(m.t11, x, m.t12, z), _dot(m.t21, x, m.t22, z))

    def orbit(self, v: PhaseVector, steps: int) -> Iterator[tuple[int, int]]:
        """Frames (c, base) of v, T v, ..., T**steps v, as in :meth:`PhaseVector.frame`.

        T**2 = tr*T + I gives T**(t+1) v = tr * T**t v + T**(t-1) v, one scalar tr on
        both components.  The interleave c = x(u**2) + u z(u**2) is additive, and
        (tr x)(u**2) = tr(u**2) x(u**2) since p(u)**2 = p(u**2) is a ring map, so on c
        the step is c_(t+1) = tr(u**2) c_t + c_(t-1): every shift doubled.  A centred
        trace is symmetric about 0, so frame t + 1 sits d = dg tr sites left of frame t,
        one shift and XOR per term away.  Frames are not normalised.
        """
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        tr, d, low = self.trace(), self.trace_degree(), (1 << 128) - 1
        shifts = [2 * (e + d) for e in tr.exponents()]
        c, base = v.frame()
        pc, pbase = (self.apply(v) + PhaseVector(tr * v.xi_plus, tr * v.xi_minus)).frame()  # T**-1 = T + tr*I
        # Frame -1 sits at base + d; the entries' radius may exceed d.  v = 0 iff T**-1 v = 0.
        start = min(base, pbase - d)
        c, pc, base = c << 2 * (base - start), pc << 2 * (pbase - d - start), start
        for _ in range(steps):
            yield c, base
            nc = pc << 4 * d
            for s in shifts:
                nc ^= c << s
            pc, c, base = c, nc, base - d
            # Drop the zeros a right-drifting orbit leaves below both frames (64 sites), or steps grow with t.
            if not (c & low or pc & low):
                pc, c, base = pc >> 128, c >> 128, base + 64
        yield c, base

    def trace(self) -> LaurentPoly:
        return self.matrix.trace()

    def trace_degree(self) -> int:
        """dg of the trace polynomial; 0 for constant trace (including zero)."""
        span = self.matrix.trace().degree_span()
        return 0 if span is None else max(span[1], 0)

    def __matmul__(self, other: "ValidatedCqca") -> "ValidatedCqca":
        product = self.matrix @ other.matrix
        return ValidatedCqca(product, classify(product))

    def power(self, k: int) -> "ValidatedCqca":
        """T**k in the closed form a*T + b*I, linear in k.

        Cayley-Hamilton with det T = 1 gives T**2 = tr*T + I over F2, so
        every power is a*T + b*I.  Square-and-multiply runs on the pair
        (a, b) from T = (1, 0) over the bits of k after the leading one:
        squaring maps it to (a**2*tr, a**2 + b**2) and a factor T maps it to
        (a*tr + b, a).  a and b are bare int masks at one shared offset lo
        (each is u**lo times its mask).  a**2 and a**2 + b**2 = (a + b)**2 are
        the two halves of one Frobenius bit-spread of a + (a + b) u**w, w the
        width of a, so each bit of k costs one spread.  A centred trace starts
        at u**-d, so a product with tr lowers lo by d and b is shifted up d
        bits to match.  lo never reads a mask, so a zero mask (a_k at even k
        if tr = 0) keeps its place: lo = lo(a_k) = -(k-1)*d = lo(b_k) - d.
        """
        if k < 0:
            raise ValueError("negative powers are not supported; use inverse()")
        if k == 0:
            return identity()
        tr = self.trace()
        t, d = tr.mask, -tr.min_exp
        a, b, lo = 1, 0, 0  # T = 1*T + 0*I
        for bit in format(k, "b")[1:]:
            w = a.bit_length()
            s = spread_bits((a ^ b) << w | a)
            a, b, lo = clmul(s & (1 << 2 * w) - 1, t), s >> 2 * w << d, 2 * lo - d
            if bit == "1":
                a, b, lo = clmul(a, t) ^ b << d, a << d, lo - d

        def entry(p: LaurentPoly, c: int) -> LaurentPoly:  # a*p + c, c being b or 0; a centred p has lo(p) <= 0
            return LaurentPoly(clmul(a, p.mask) ^ c << -p.min_exp, lo + p.min_exp)

        m = self.matrix
        result = CqcaMatrix(entry(m.t11, b), entry(m.t12, 0), entry(m.t21, 0), entry(m.t22, b))
        # tr(a*T + b*I) = a*tr + 2b = a*tr over F2: no diagonal is re-added.
        return ValidatedCqca(result, classify_trace(LaurentPoly(clmul(a, t), lo - d)))

    def inverse(self) -> "ValidatedCqca":
        # det = 1 after centering, so the adjugate (over F2) is the inverse.
        m = self.matrix
        inv = CqcaMatrix(m.t22, m.t12, m.t21, m.t11)
        return ValidatedCqca(inv, classify(inv))

    def __str__(self) -> str:
        return f"{self.class_tag} {self.matrix}"


def validate(m: CqcaMatrix) -> ValidatedCqca:
    """Check the three automaton conditions, center, and classify.

    Raises DetNotMonomial, DetOddShift, EntriesNotSymmetric,
    ColumnsNotCoprime, or PureShift (a bare shift u**a with a != 0, which
    is rejected rather than silently centered away).
    """
    det = m.det()
    if det.is_zero or det.mask != 1:
        raise DetNotMonomial(f"determinant is {render_poly(det)}, not a single u^2a")
    if det.min_exp % 2:
        raise DetOddShift(f"determinant u^{det.min_exp} has odd shift")
    a = det.min_exp // 2
    for p in m.entries():
        if not p.is_reflection_symmetric(a):
            raise EntriesNotSymmetric(a)
    if gcd(m.t11, m.t21) != LaurentPoly.one():
        raise ColumnsNotCoprime(1)
    if gcd(m.t12, m.t22) != LaurentPoly.one():
        raise ColumnsNotCoprime(2)
    if (
        a != 0
        and m.t12.is_zero
        and m.t21.is_zero
        and m.t11 == m.t22 == LaurentPoly(1, a)
    ):
        raise PureShift(f"bare lattice shift by {a} sites")
    centered = center(m, a)
    return ValidatedCqca(centered, classify(centered))


def period(t: ValidatedCqca, cap: int) -> int | None:
    """Smallest p <= cap with t**p the identity, or None if there is none.

    Closed form from T**2 = tr*T + I: trace 0 gives T**2 = I (period 1 for
    the identity, else 2); trace 1 gives T**3 = T**2 + T = I and no smaller
    power is I (period 3).  Any other trace makes the entries of T**p grow
    without bound, so no power is the identity.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    tr = t.trace()
    if tr.is_zero:
        p = 1 if t.matrix == identity().matrix else 2
    elif tr == LaurentPoly.one():
        p = 3
    else:
        return None
    return p if p <= cap else None


# -- built-in matrices ------------------------------------------------


def glider() -> ValidatedCqca:
    """The standard glider automaton: X -> Z, Z -> Z x X x Z."""
    return validate(CqcaMatrix.from_strings("0", "1", "1", "u^-1 + u"))


def fractal() -> ValidatedCqca:
    """The standard fractal automaton with trace u^-1 + 1 + u."""
    return validate(CqcaMatrix.from_strings("u^-1 + 1 + u", "1", "1", "0"))


def identity() -> ValidatedCqca:
    return ValidatedCqca(CqcaMatrix.from_strings("1", "0", "0", "1"), Periodic())


def swap() -> ValidatedCqca:
    """Exchange X and Z everywhere (the Hadamard automaton)."""
    return validate(CqcaMatrix.from_strings("0", "1", "1", "0"))


def shear(p: LaurentPoly) -> ValidatedCqca:
    """Lower shear [[1, 0], [p, 1]]; p must be mirror-symmetric about 0."""
    return validate(CqcaMatrix(LaurentPoly.one(), LaurentPoly.zero(), p, LaurentPoly.one()))


def upper_shear(p: LaurentPoly) -> ValidatedCqca:
    """Upper shear [[1, p], [0, 1]]; p must be mirror-symmetric about 0."""
    return validate(CqcaMatrix(LaurentPoly.one(), p, LaurentPoly.zero(), LaurentPoly.one()))


def random_cqca(seed: int, word_length: int, max_shear_degree: int) -> ValidatedCqca:
    """Compose a deterministic random word of swaps and symmetric shears.

    Sampling generator words keeps every draw inside the automaton group,
    where naive random entries would almost never validate.  The factors are
    multiplied as raw matrices and the word is validated once.
    """
    if word_length < 0:
        raise ValueError("word_length must be nonnegative")
    if max_shear_degree < 1:
        raise ValueError("max_shear_degree must be positive")
    rng = _random.Random(seed)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    result = CqcaMatrix(one, zero, zero, one)
    for _ in range(word_length):
        kind = rng.randrange(3)
        if kind == 0:
            factor = CqcaMatrix(zero, one, one, zero)
        else:
            p = _random_symmetric_poly(rng, max_shear_degree)
            factor = CqcaMatrix(one, zero, p, one) if kind == 1 else CqcaMatrix(one, p, zero, one)
        result = result @ factor
    return validate(result)


def _random_symmetric_poly(rng: _random.Random, max_degree: int) -> LaurentPoly:
    exps = []
    if rng.randrange(2):
        exps.append(0)
    for k in range(1, max_degree + 1):
        if rng.randrange(2):
            exps += [-k, k]
    return LaurentPoly.from_exponents(exps)


# -- matrix files and names -------------------------------------------

_KEYS = ("t11", "t12", "t21", "t22")


def _parse_entry(key: str, text: str) -> LaurentPoly:
    """parse_poly, naming the entry in a PolySyntaxError."""
    try:
        return parse_poly(text)
    except PolySyntaxError as exc:
        raise PolySyntaxError(f"{key}: {exc.message}", exc.position) from None


_BUILTINS = {
    "glider": glider,
    "fractal": fractal,
    "identity": identity,
    "swap": swap,
}


def parse_matrix_file(text: str) -> CqcaMatrix:
    """Parse the line-oriented "key value" format with keys t11/t12/t21/t22."""
    values: dict[str, LaurentPoly] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_entry(key, value)
    missing = [k for k in _KEYS if k not in values]
    if missing:
        raise ValueError(f"missing keys: {', '.join(missing)}")
    return CqcaMatrix(*(values[k] for k in _KEYS))


def resolve_matrix(source: str) -> ValidatedCqca:
    """Resolve a built-in name, "shear:<poly>", or a matrix file path."""
    if source in _BUILTINS:
        return _BUILTINS[source]()
    if source.startswith("shear:"):
        return shear(parse_poly(source[len("shear:"):]))
    with open(source, encoding="utf-8") as handle:
        return validate(parse_matrix_file(handle.read()))
