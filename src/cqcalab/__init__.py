"""Exact symbolic laboratory for one-dimensional Clifford cellular automata."""

from .laurent import LaurentPoly, gcd, parse_poly, render_poly
from .phase_space import (
    PhaseVector,
    format_observable,
    parse_observable,
    pauli_to_phase_space,
    phase_space_to_pauli,
    symplectic_form,
)
from .automaton import (
    CqcaMatrix,
    CqcaValidationError,
    Fractal,
    Glider,
    Periodic,
    ValidatedCqca,
    classify,
    fractal,
    glider,
    identity,
    period,
    random_cqca,
    resolve_matrix,
    shear,
    swap,
    upper_shear,
    validate,
)
from .stabilizer import (
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
from .finite_chain import (
    FiniteOperator,
    FiniteRule,
    evolve_finite,
    global_y_parity,
    mirror_time,
    oracle_sweep,
    ring_entropy_profile,
    ring_state_entropy,
    truncate_rule,
)
from .render import SpaceTimeDiagram, build_diagram, emit

__version__ = "0.1.0"
