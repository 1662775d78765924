"""Translation-invariant pure stabilizer states and their entanglement.

A state is given by one generator seed: all stabilizer generators are
lattice translates of a single Pauli product whose phase-space label is
mirror-symmetric about the origin with coprime components.  With
generator length 2n + 1, closed forms give the entanglement directly: n
ebits across any bipartite cut, min(2n, L) ebits between a region of L
sites and the rest of the chain.

Evolution validates its input seed once (later seeds stay valid, see ``evolve``) and steps
by ``ValidatedCqca.orbit``, xi_(t+1) = tr * xi_t + xi_(t-1).  Trajectories read n off it only
until n grows by d = dg tr, then count n(t) = n(t0) + (t - t0) d (the rate theorem).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, cycle, islice
from typing import Iterable, Iterator, NamedTuple

from .automaton import ValidatedCqca
from .laurent import LaurentPoly, Record, gcd
from .phase_space import PhaseVector, symplectic_form


class StateValidationError(ValueError):
    """The seed does not define a pure translation-invariant stabilizer state."""


class NotReflectionSymmetric(StateValidationError):
    pass


class CenterIdentity(StateValidationError):
    pass


class SingleLetterType(StateValidationError):
    pass


class CommonDivisor(StateValidationError):
    def __init__(self, divisor: LaurentPoly):
        super().__init__(f"components share the divisor {divisor}")
        self.divisor = divisor


class TIStabilizerState(Record):
    """Generator seed xi plus its half-length n (generator length 2n + 1)."""

    __slots__ = ("xi", "n")


def validate_state(v: PhaseVector) -> TIStabilizerState:
    """Check the purity conditions and return the state with its half-length.

    The generator must be mirror-symmetric about the origin and its two
    component polynomials coprime; the named errors pinpoint which of
    the equivalent elementary conditions failed (non-identity center,
    more than one letter type, no shared divisor).
    """
    plus, minus = v.xi_plus, v.xi_minus
    if not (plus.is_reflection_symmetric(0) and minus.is_reflection_symmetric(0)):
        raise NotReflectionSymmetric("seed is not mirror-symmetric about site 0")
    if plus.coefficient(0) == 0 and minus.coefficient(0) == 0:
        raise CenterIdentity("center site carries the identity")
    common = gcd(plus, minus)
    if common != LaurentPoly.one():
        degenerate = plus.is_zero or minus.is_zero or plus == minus
        if degenerate:
            raise SingleLetterType("only one non-identity letter type occurs")
        raise CommonDivisor(common)
    # The center is occupied, so the seed is nonzero and has a support.
    return TIStabilizerState(v, v.support()[1])


def all_spins_up() -> TIStabilizerState:
    """The product state generated by Z at every site."""
    return validate_state(PhaseVector(LaurentPoly.zero(), LaurentPoly.one()))


def evolve(
    s: TIStabilizerState, t: ValidatedCqca, steps: int
) -> list[TIStabilizerState]:
    """States after 0..steps automaton steps; only the input is validated.

    A ValidatedCqca is centred: its entries are mirror-symmetric about 0
    and det = 1, and so are all products and inverses of such matrices.
    Sums and products of polynomials symmetric about 0 stay symmetric, so T
    keeps both components of the seed mirror-symmetric about 0.  T is
    invertible, so (xi+, xi-) and its image generate the same ideal, and
    coprime components stay coprime.  Symmetric and coprime imply a
    non-identity centre: a symmetric polynomial without constant term is a
    sum of u**-k + u**k = u**-k (1 + u**k)**2, all divisible by 1 + u.
    Hence every later state is valid, and its half-length is support()[1].
    """
    validate_state(s.xi)
    return [_frame_state(*frame) for frame in t.orbit(s.xi, steps)]


def _frame_state(c: int, base: int) -> TIStabilizerState:
    """The state of an orbit frame of a valid seed (see ``evolve``); n is its highest site."""
    return TIStabilizerState(PhaseVector.from_frame(c, base), base + (c.bit_length() + 1) // 2 - 1)


def tripartite_entanglement(s: TIStabilizerState, region_length: int) -> int:
    """Ebits between a length-L region and the rest of the chain: min(2n, L)."""
    if region_length < 1:
        raise ValueError("region length must be positive")
    return min(2 * s.n, region_length)


class TrajectoryPoint(NamedTuple):
    step: int
    n: int
    e_bipartite: int
    e_tripartite: int | None


def _transient(t: ValidatedCqca, xi: PhaseVector, steps: int) -> list[int]:
    """n_0 .. n_k, the highest sites of frames of ``t.orbit(xi, steps)`` through the transient.

    F2[u, 1/u] is an integral domain and a centred trace has top degree d, so dg(tr xi)
    = d + dg xi for xi != 0.  By xi_(k+1) = tr xi_k + xi_(k-1), n_(k-1) < n_k + d gives
    n_(k+1) = n_k + d, and for d > 0 the condition recurs: n_j = n_k + (j - k) d for j > k.
    Until then n drops by d or more a step, and a valid seed has n >= 0, so at most
    n_0 // d + 2 frames are drawn.  For d = 0, T**2 = I (tr = 0) or T**3 = I (tr = 1), so
    one period of 2 or 3 frames is drawn, and n_j = n_(j mod period).
    """
    d, ns = t.trace_degree(), []
    for c, base in t.orbit(xi, steps if d else min(steps, 2 if t.trace() else 1)):
        ns.append(base + (c.bit_length() + 1) // 2 - 1)
        if d and len(ns) > 1 and ns[-2] < ns[-1] + d:
            break
    return ns


def _half_lengths(t: ValidatedCqca, xi: PhaseVector, steps: int) -> Iterator[int]:
    """n_0 .. n_steps: the transient, then counted (see ``_transient``)."""
    ns, d = _transient(t, xi, steps), t.trace_degree()
    if not d:
        return islice(cycle(ns), steps + 1)
    return chain(ns, range(ns[-1] + d, ns[-1] + (steps + 2 - len(ns)) * d, d))


def entanglement_trajectory(
    t: ValidatedCqca, s: TIStabilizerState, steps: int, region_length: int | None = None
) -> Iterator[TrajectoryPoint]:
    """Per-step entanglement of a valid ``s`` under ``t``: n ebits across any bipartite cut.

    The arguments are checked at the call; the points are yielded lazily.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if region_length is not None and region_length < 1:
        raise ValueError("region length must be positive")
    points = enumerate(_half_lengths(t, s.xi, steps))
    return (TrajectoryPoint(k, n, n, region_length and min(2 * n, region_length)) for k, n in points)


def trajectory_csv(points: Iterable[TrajectoryPoint]) -> str:
    """Render a trajectory as "t,n,E_bi,E_tri" CSV; E_tri empty when absent."""
    rows = (f"{k},{n},{e_bi},{'' if e_tri is None else e_tri}\n" for k, n, e_bi, e_tri in points)
    return "t,n,E_bi,E_tri\n" + "".join(rows)


MIN_RATE_STEPS = 16


def asymptotic_rate(
    t: ValidatedCqca, s: TIStabilizerState, steps: int
) -> tuple[int, Fraction]:
    """(predicted, empirical) entanglement rate in ebit pairs per step.

    Predicted is the trace degree.  The empirical slope is taken over the
    second half of the run only, since the early steps may transiently
    destroy entanglement before linear growth sets in.  Both ends are read
    by position once the transient is walked (see ``_transient``).
    """
    if steps < MIN_RATE_STEPS:
        raise ValueError(f"need at least {MIN_RATE_STEPS} steps for a meaningful slope")
    validate_state(s.xi)
    ns, d, half = _transient(t, s.xi, steps), t.trace_degree(), steps // 2
    k = len(ns) - 1
    n_half, n_end = (ns[min(j, k)] + max(j - k, 0) * d if d else ns[j % len(ns)] for j in (half, steps))
    return d, Fraction(n_end - n_half, steps - half)


def extract_logical_pairs(
    s: TIStabilizerState, cut_bond: int = 0
) -> list[tuple[PhaseVector, PhaseVector]]:
    """Logical X/Z pairs encoded on the right half by the cut generators.

    The cut between sites cut_bond - 1 and cut_bond slices through the 2n
    generators centered at cut_bond - n .. cut_bond + n - 1.  Their
    restrictions to the right half-chain are paired up by symplectic
    Gram-Schmidt over F2: always pair the first remaining restriction
    with the first partner it anticommutes with, then clear the
    symplectic overlap of everything else with that pair.  Exactly n
    anticommuting pairs come out, mutually commuting across pairs.
    """
    n = s.n
    if n == 0:
        return []
    rest = [
        s.xi.shifted(x).restricted(lo=cut_bond)
        for x in range(cut_bond - n, cut_bond + n)
    ]
    pairs = []
    while rest:
        v = rest.pop(0)
        partner_index = next(
            (i for i, w in enumerate(rest) if symplectic_form(v, w)), None
        )
        if partner_index is None:
            continue  # v is central among the remainder; carries no logical qubit
        w = rest.pop(partner_index)
        reduced = []
        for r in rest:
            if symplectic_form(r, w):
                r = r + v
            if symplectic_form(r, v):
                r = r + w
            reduced.append(r)
        rest = reduced
        pairs.append((v, w))
    return pairs
