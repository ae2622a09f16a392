"""The value types on the trajectory and ``check`` hot paths behave as frozen
dataclasses, and TwoQubitState's renormalisation is pinned to the bit."""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import random
import re
from pathlib import Path

import pytest

from hopfbloch import (
    BlochCoordinates,
    CoordFlag,
    NotNormalized,
    QuasiDensity,
    QuasiState,
    Quaternion,
    S4Point,
    TwoQubitState,
)
from hopfbloch.gates import Stage, TrajectorySample

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfbloch"

STATE = TwoQubitState(0.6, 0.8j, 0, 0)
COORDS = BlochCoordinates(0.5, 1.0, 1.5, 2.0, 0.25, 3.0, 0.125,
                          frozenset({CoordFlag.XI_UNDEFINED}))
SAMPLE = TrajectorySample(Stage.ROTATION_RAMP, 0.5, STATE, COORDS)
QUAT = Quaternion(0.5, -1.0, 2.0, 0.25)
POINT = S4Point(0.5, -0.5, 0.25, 0.125, -0.75)
QUASI = QuasiState(QUAT, Quaternion(0.0, 0.5))
DENSITY = QuasiDensity(Quaternion(0.25), QUAT, Quaternion(-0.0, z=1.5),
                       Quaternion(0.75))

STATE_REPR = "TwoQubitState(alpha=0.6, beta=0.8j, gamma=0, delta=0)"
COORDS_REPR = ("BlochCoordinates(theta_a=0.5, phi_a=1.0, chi=1.5, xi=2.0, "
               "theta_b=0.25, phi_b=3.0, zeta_b=0.125, flags=frozenset("
               "{<CoordFlag.XI_UNDEFINED: 'xi_undefined'>}))")
SAMPLE_REPR = (f"TrajectorySample(stage=<Stage.ROTATION_RAMP: 'rotation'>, "
               f"s=0.5, state={STATE_REPR}, coords={COORDS_REPR}, "
               f"branch_flip=False)")
QUAT_REPR = "Quaternion(w=0.5, x=-1.0, y=2.0, z=0.25)"
POINT_REPR = "S4Point(x0=0.5, x1=-0.5, x2=0.25, x3=0.125, x4=-0.75)"
QUASI_REPR = (f"QuasiState(q0={QUAT_REPR}, "
              "q1=Quaternion(w=0.0, x=0.5, y=0.0, z=0.0))")
DENSITY_REPR = ("QuasiDensity(e00=Quaternion(w=0.25, x=0.0, y=0.0, z=0.0), "
                f"e01={QUAT_REPR}, "
                "e10=Quaternion(w=-0.0, x=0.0, y=0.0, z=1.5), "
                "e11=Quaternion(w=0.75, x=0.0, y=0.0, z=0.0))")

VALUES = {"state": (STATE, STATE_REPR), "coords": (COORDS, COORDS_REPR),
          "sample": (SAMPLE, SAMPLE_REPR), "quaternion": (QUAT, QUAT_REPR),
          "s4_point": (POINT, POINT_REPR), "quasi_state": (QUASI, QUASI_REPR),
          "quasi_density": (DENSITY, DENSITY_REPR)}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_contract(name):
    value, want_repr = VALUES[name]
    first = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, getattr(value, first))
    twin = type(value)(*(getattr(value, f.name)
                         for f in dataclasses.fields(value)))
    assert twin == value and hash(twin) == hash(value)
    assert repr(value) == want_repr
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == want_repr


def test_value_type_keywords_and_defaults():
    angles = dict(zip(("theta_a", "phi_a", "chi", "xi", "theta_b", "phi_b",
                       "zeta_b"), COORDS.angles()))
    c = BlochCoordinates(**angles)
    assert c.angles() == COORDS.angles() and c.flags == frozenset()
    assert c == BlochCoordinates(*COORDS.angles())
    assert BlochCoordinates(**angles, flags=COORDS.flags) == COORDS

    sample = TrajectorySample(stage=Stage.PHASE_RAMP, s=0.0, state=STATE,
                              coords=COORDS)
    assert sample.branch_flip is False
    assert TrajectorySample(Stage.PHASE_RAMP, 0.0, STATE, COORDS,
                            True).branch_flip is True

    s = TwoQubitState(delta=0, gamma=0, beta=0.8j, alpha=0.6)
    assert s == STATE

    assert Quaternion(z=0.25, y=2.0, x=-1.0, w=0.5) == QUAT
    assert Quaternion() == Quaternion(0.0, 0.0, 0.0, 0.0)
    assert Quaternion(0.5, z=0.25) == Quaternion(0.5, 0.0, 0.0, 0.25)

    assert S4Point(x4=-0.75, x3=0.125, x2=0.25, x1=-0.5, x0=0.5) == POINT
    assert QuasiState(q1=Quaternion(0.0, 0.5), q0=QUAT) == QUASI
    assert QuasiDensity(e11=Quaternion(0.75), e10=Quaternion(-0.0, z=1.5),
                        e01=QUAT, e00=Quaternion(0.25)) == DENSITY
    with pytest.raises(TypeError):
        S4Point(0.5, -0.5, 0.25, 0.125)  # no field has a default


def test_replace_renormalises_state():
    s = dataclasses.replace(TwoQubitState(1, 0, 0, 0), alpha=1 + 1e-7)
    assert s == TwoQubitState(1 + 1e-7, 0, 0, 0)
    assert s.alpha == (1 + 1e-7) / math.sqrt(abs(1 + 1e-7) ** 2)
    with pytest.raises(NotNormalized):
        dataclasses.replace(STATE, gamma=1.0)
    c = dataclasses.replace(COORDS, xi=0.0, flags=frozenset())
    assert c == BlochCoordinates(0.5, 1.0, 1.5, 0.0, 0.25, 3.0, 0.125)


def _hand_initialised():
    """Every dataclass in src/ built with init=False (a hand-written
    __init__ that must keep up with the fields)."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"hopfbloch.{path.stem}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__
                    and not obj.__dataclass_params__.init):
                found.add(obj)
    return found


def test_hand_written_inits_follow_their_fields():
    examples = {TwoQubitState: STATE, BlochCoordinates: COORDS,
                TrajectorySample: SAMPLE}
    # a new init=False dataclass needs an example here
    assert _hand_initialised() == set(examples)
    for cls, example in examples.items():
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        fields = dataclasses.fields(cls)
        assert [p.name for p in params] == [f.name for f in fields]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
        for p, f in zip(params, fields):
            assert f.default_factory is dataclasses.MISSING
            want = p.empty if f.default is dataclasses.MISSING else f.default
            assert p.default == want, f"{cls.__name__}.{f.name}"
        # every slot is set: an unset one raises AttributeError
        built = cls(*(getattr(example, f.name) for f in fields))
        for f in fields:
            assert getattr(built, f.name) is getattr(example, f.name)


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _draws():
    """Amplitude quadruples normalised in floats, whose n2 is 1.0 or off in
    its last bits, and the same scaled off-norm within the tolerance."""
    rng = random.Random(8)
    for _ in range(200):
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        n = math.sqrt(sum(abs(z) ** 2 for z in v))
        yield tuple(z / n for z in v)
        scale = 1.0 + rng.uniform(-5e-7, 5e-7)
        yield tuple(z / n * scale for z in v)


def test_renormalisation_is_pinned_to_the_bit():
    kept = renormalised = 0
    for amps in _draws():
        a, b, g, d = amps
        n2 = abs(a) ** 2 + abs(b) ** 2 + abs(g) ** 2 + abs(d) ** 2
        s = TwoQubitState(a, b, g, d)
        if n2 == 1.0:
            kept += 1
            assert all(x is y for x, y in zip(s.amplitudes(), amps))
        else:
            renormalised += 1
            n = math.sqrt(n2)
            assert ([_bits(x) for x in s.amplitudes()]
                    == [_bits(x / n) for x in amps])
    assert kept >= 20 and renormalised >= 200
    unit = (0.6, 0.8j, 0, 0)
    assert all(x is y for x, y in zip(TwoQubitState(*unit).amplitudes(), unit))


@pytest.mark.parametrize("amps, message", [
    ((1e200, 0, 0, 0), "amplitude norm overflows a float"),
    ((complex(1e200, 1e200), 0, 0, 0), "amplitude norm overflows a float"),
    ((math.nan, 0, 0, 0), "amplitude norm nan is not 1"),
    ((math.inf, 0, 0, 0), "amplitude norm inf is not 1"),
    ((1.1, 0, 0, 0), "amplitude norm 1.1 is not 1"),
    ((0, 0, 0, 0), "amplitude norm 0 is not 1"),
    ((1 + 2e-6, 0, 0, 0), "amplitude norm 1.000002 is not 1"),
])
def test_bad_norms_keep_their_messages(amps, message):
    with pytest.raises(NotNormalized, match=f"^{re.escape(message)}$"):
        TwoQubitState(*amps)

