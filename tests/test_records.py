"""The value contract of the immutable record types, and what importing the package costs."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cqcalab.automaton import CqcaMatrix, Fractal, Glider, Periodic, ValidatedCqca, glider
from cqcalab.finite_chain import FiniteOperator, FiniteRule, truncate_rule
from cqcalab.laurent import LaurentPoly, Record
from cqcalab.phase_space import PhaseVector, parse_observable
from cqcalab.render import SpaceTimeDiagram, build_diagram
from cqcalab.stabilizer import TIStabilizerState, all_spins_up

ONE, U = LaurentPoly(1, 0), LaurentPoly(1, 1)
RULE = truncate_rule(glider(), 9, "ring")
# Per class, two field sets (in declaration order) that differ in exactly one field; every
# class with fields has two of them.
FIELDS = {
    LaurentPoly: [{"mask": 5, "min_exp": -1}, {"mask": 5, "min_exp": 0}],
    PhaseVector: [{"xi_plus": ONE, "xi_minus": U}, {"xi_plus": U, "xi_minus": U}],
    Periodic: [{}],
    Glider: [{"speed": 1}, {"speed": 2}],
    Fractal: [{}],
    CqcaMatrix: [{"t11": ONE, "t12": U, "t21": ONE, "t22": U}, {"t11": ONE, "t12": U, "t21": ONE, "t22": ONE}],
    ValidatedCqca: [{"matrix": glider().matrix, "class_tag": Glider(1)}, {"matrix": glider().matrix, "class_tag": Fractal()}],
    TIStabilizerState: [{"xi": PhaseVector(ONE, U), "n": 1}, {"xi": PhaseVector(ONE, U), "n": 2}],
    FiniteOperator: [{"n_sites": 3, "x_mask": 1, "z_mask": 2, "phase_exp": 3},
                     {"n_sites": 3, "x_mask": 1, "z_mask": 2, "phase_exp": 1}],
    FiniteRule: [{"n_sites": 9, "boundary": "ring", "bulk": RULE.bulk, "left": (), "right": ()},
                 {"n_sites": 9, "boundary": "open", "bulk": RULE.bulk, "left": (), "right": ()}],
    SpaceTimeDiagram: [{"frames": ((1, 0), (0, 0)), "window": (0, 3)}, {"frames": ((2, 0), (0, 0)), "window": (0, 3)}],
}
CASES = [(cls, fields) for cls, sets in FIELDS.items() for fields in sets]


def test_every_record_type_is_covered():
    assert set(FIELDS) == set(Record.__subclasses__()) and len(FIELDS) == 11


@pytest.mark.parametrize("cls, fields", CASES)
def test_equal_fields_make_equal_records_with_equal_hashes(cls, fields):
    a, b = cls(*fields.values()), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert tuple(getattr(a, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize("cls, fields", CASES)
def test_never_equal_to_a_tuple_of_its_fields(cls, fields):
    record = cls(*fields.values())
    assert record != tuple(fields.values())
    assert record != list(fields.values())


@pytest.mark.parametrize("cls", [cls for cls, sets in FIELDS.items() if len(sets) == 2])
def test_one_different_field_makes_records_unequal(cls):
    first, second = (cls(**fields) for fields in FIELDS[cls])
    assert first != second and not first == second


def test_equality_needs_the_same_class():
    assert Periodic() != Fractal()
    assert Periodic() == Periodic() and Fractal() == Fractal()
    assert LaurentPoly(1, 0) != Glider(1)
    assert len({Periodic(), Periodic(), Fractal()}) == 2


@pytest.mark.parametrize("cls, fields", CASES)
def test_assignment_and_deletion_raise(cls, fields):
    record = cls(*fields.values())
    for name in [*fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*fields.values())


@pytest.mark.parametrize("cls, fields", CASES)
def test_wrong_argument_counts_raise_type_error(cls, fields):
    with pytest.raises(TypeError):
        cls(*fields.values(), 0)
    with pytest.raises(TypeError):
        cls(**fields, other=0)
    if fields:
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(*fields.values(), **{first: fields[first]})
    if cls not in (LaurentPoly, Periodic, Fractal):  # LaurentPoly() is the zero polynomial
        with pytest.raises(TypeError):
            cls()


def test_keyword_construction_binds_by_name():
    d = SpaceTimeDiagram(window=(0, 3), frames=((1, 0),))
    assert d == SpaceTimeDiagram(((1, 0),), (0, 3))
    assert PhaseVector(xi_minus=U, xi_plus=ONE) == PhaseVector(ONE, U)
    assert CqcaMatrix(ONE, U, t22=U, t21=ONE) == CqcaMatrix(ONE, U, ONE, U)
    assert FiniteOperator(3, z_mask=2, x_mask=1) == FiniteOperator(3, 1, 2, 0)


def test_finite_rules_differing_only_in_kernel_are_equal():
    twin = FiniteRule(RULE.n_sites, RULE.boundary, RULE.bulk)
    object.__setattr__(twin, "kernel", ())
    assert twin.kernel != RULE.kernel
    assert twin == RULE and hash(twin) == hash(RULE)
    assert repr(twin) == repr(RULE) and "kernel" not in repr(RULE)


@pytest.mark.parametrize("cls, fields", CASES)
def test_copy_and_pickle_rebuild_equal_records(cls, fields):
    record = cls(*fields.values())
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


def test_pickled_rule_rebuilds_its_kernel():
    rule = truncate_rule(glider(), 9, "open")
    assert pickle.loads(pickle.dumps(rule)).kernel == rule.kernel


# The repr strings the frozen dataclasses printed, character for character.
PINNED_REPRS = [
    (glider,
     "ValidatedCqca(matrix=CqcaMatrix(t11=LaurentPoly('0'), t12=LaurentPoly('1'), t21=LaurentPoly('1'), "
     "t22=LaurentPoly('u^-1 + u')), class_tag=Glider(speed=1))"),
    (lambda: truncate_rule(glider(), 9, "open"),
     "FiniteRule(n_sites=9, boundary='open', bulk=(FiniteOperator(n_sites=9, x_mask=0, z_mask=1, phase_exp=0), "
     "FiniteOperator(n_sites=9, x_mask=1, z_mask=258, phase_exp=0)), left=((FiniteOperator(n_sites=9, x_mask=0, "
     "z_mask=1, phase_exp=0), FiniteOperator(n_sites=9, x_mask=1, z_mask=2, phase_exp=0)),), "
     "right=((FiniteOperator(n_sites=9, x_mask=0, z_mask=256, phase_exp=0), FiniteOperator(n_sites=9, "
     "x_mask=256, z_mask=128, phase_exp=0)),))"),
    # Pinned when the diagram's rows became the orbit's frames: X@0, Z@0 and ZXZ@-1,
    # unnormalised, on the window -2..2.
    (lambda: build_diagram(glider(), parse_observable("X@0"), 2),
     "SpaceTimeDiagram(frames=((16, -2), (128, -3), (2432, -4)), window=(-2, 2))"),
    (all_spins_up,
     "TIStabilizerState(xi=PhaseVector(xi_plus=LaurentPoly('0'), xi_minus=LaurentPoly('1')), n=0)"),
    (lambda: FiniteOperator(3, 1, 2, 7), "FiniteOperator(n_sites=3, x_mask=1, z_mask=2, phase_exp=3)"),
    (lambda: parse_observable("XZY@-2"),
     "PhaseVector(xi_plus=LaurentPoly('u^-2 + 1'), xi_minus=LaurentPoly('u^-1 + 1'))"),
    (Periodic, "Periodic()"),
    (Fractal, "Fractal()"),
]


@pytest.mark.parametrize("make, expected", PINNED_REPRS)
def test_repr_matches_the_dataclass_repr(make, expected):
    assert repr(make()) == expected


def test_importing_the_cli_generates_no_code():
    """A fresh interpreter imports neither dataclasses nor inspect for the package.

    -S keeps site hooks out, so no module they load can hide one the package loads.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", "import cqcalab.cli"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    imported = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}
    assert "cqcalab.cli" in imported and "cqcalab.laurent" in imported
    assert not imported & {"dataclasses", "inspect"}
