import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wpheights import (
    ExactRoot,
    FactorConfig,
    Factorization,
    KroneckerResult,
    ProjectivePoint,
    WeightedPoint,
    WeightedTuple,
    WeightSystem,
    WellFormingResult,
    WellFormingStep,
    factorize,
    kronecker_check,
    well_form,
)

# One value of each class, built twice per test; the reprs are the ones the
# frozen-dataclass versions of these classes printed.
VALUES = [
    (
        FactorConfig,
        "FactorConfig(trial_bound=1000000, rho_iterations=262144, rho_attempts=32, seed=0)",
    ),
    (
        lambda: FactorConfig(trial_bound=100, rho_iterations=8, rho_attempts=2, seed=5),
        "FactorConfig(trial_bound=100, rho_iterations=8, rho_attempts=2, seed=5)",
    ),
    (
        lambda: factorize(Fraction(-1440, 7)),
        "Factorization(sign=-1, factors={2: 5, 3: 2, 5: 1, 7: -1})",
    ),
    (lambda: Factorization(1), "Factorization(sign=1, factors={})"),
    (lambda: ExactRoot(8, 6), "ExactRoot(radicand=Fraction(2, 1), index=2)"),
    (lambda: ExactRoot(Fraction(4, 9), 3), "ExactRoot(radicand=Fraction(4, 9), index=3)"),
    (lambda: WeightSystem((2, 3)), "WeightSystem(weights=(2, 3))"),
    (
        lambda: WeightedTuple((1440, -700), (3, 2)),
        "WeightedTuple(coords=(1440, -700), weights=WeightSystem(weights=(3, 2)))",
    ),
    (
        lambda: WeightedPoint(("1/2", 0, 3), (1, 2, 3)),
        "WeightedPoint(coords=(Fraction(1, 2), Fraction(0, 1), Fraction(3, 1)), "
        "weights=WeightSystem(weights=(1, 2, 3)))",
    ),
    (lambda: WellFormingStep(2, None), "WellFormingStep(divisor=2, pivot=None)"),
    (
        lambda: well_form((2, 4, 6, 9)),
        "WellFormingResult(new_weights=WeightSystem(weights=(1, 2, 3, 9)), "
        "steps=(WellFormingStep(divisor=2, pivot=3),))",
    ),
    (lambda: ProjectivePoint((2, -4, 6)), "ProjectivePoint(coords=(1, -2, 3))"),
    (
        lambda: kronecker_check(WeightedPoint((1, -1), (2, 3))),
        "KroneckerResult(height_is_one=True, ratio_condition=True)",
    ),
]
IDS = [text.partition("(")[0] for _, text in VALUES]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


def test_every_value_class_is_covered():
    classes = {type(build()) for build, _ in VALUES}
    assert classes == {
        FactorConfig,
        Factorization,
        ExactRoot,
        WeightSystem,
        WeightedTuple,
        WeightedPoint,
        WellFormingStep,
        WellFormingResult,
        ProjectivePoint,
        KroneckerResult,
    }


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_repr_is_pinned(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_equal_values_are_equal_and_hash_equal(build, text):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if isinstance(a, Factorization):
        with pytest.raises(TypeError):  # its factors are a dict
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_other_classes_compare_unequal(build, text):
    value = build()
    other = WellFormingStep(2, None) if not isinstance(value, WellFormingStep) else ExactRoot(2)
    assert value != other and other != value
    assert value != _fields(value)


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(build, text):
    value = build()
    for name, field in zip(type(value).__slots__, _fields(value)):
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == build()


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(build, text):
    value = build()
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is type(value) and twin == value and repr(twin) == text


def test_default_constructor_takes_fields_by_position_or_name():
    assert WellFormingStep(divisor=2, pivot=None) == WellFormingStep(2, pivot=None) == WellFormingStep(2, None)
    for args, kwargs in [((2,), {}), ((2, None, 1), {}), ((2,), {"pivot": 1, "other": 0})]:
        with pytest.raises(TypeError):
            WellFormingStep(*args, **kwargs)


# Pickles written by the frozen-dataclass versions, whose state was __dict__.
DATACLASS_PICKLES = [
    (
        b"\x80\x04\x95\xaf\x00\x00\x00\x00\x00\x00\x00\x8c\x14wpheights.projective\x94\x8c\rWeightedPoint"
        b"\x94\x93\x94)\x81\x94}\x94(\x8c\x06coords\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K"
        b"\x01K\x02\x86\x94R\x94h\x08K\x00K\x01\x86\x94R\x94h\x08K\x03K\x01\x86\x94R\x94\x87\x94\x8c"
        b"\x07weights\x94\x8c\x0ewpheights.wgcd\x94\x8c\x0cWeightSystem\x94\x93\x94)\x81\x94}\x94h\x10K"
        b"\x01K\x02K\x03\x87\x94sbub.",
        WeightedPoint(("1/2", 0, 3), (1, 2, 3)),
    ),
    (
        b"\x80\x04\x95[\x00\x00\x00\x00\x00\x00\x00\x8c\x17wpheights.factorization\x94\x8c\r"
        b"Factorization\x94\x93\x94)\x81\x94}\x94(\x8c\x04sign\x94J\xff\xff\xff\xff\x8c\x07factors"
        b"\x94}\x94(K\x02K\x05K\x03K\x02K\x05K\x01uub.",
        factorize(-1440),
    ),
]


@pytest.mark.parametrize("data, value", DATACLASS_PICKLES, ids=["WeightedPoint", "Factorization"])
def test_dataclass_pickles_still_load(data, value):
    loaded = pickle.loads(data)
    assert type(loaded) is type(value) and loaded == value and repr(loaded) == repr(value)


@pytest.mark.parametrize("state", [{"weight": (2, 3)}, ((2, 3), 1), [(2, 3)], "weights"])
def test_foreign_state_is_refused(state):
    blank = WeightSystem.__new__(WeightSystem)
    with pytest.raises(TypeError):
        blank.__setstate__(state)


def test_fields_match_positionally():
    match WellFormingStep(3, 1):
        case WellFormingStep(divisor, pivot):
            assert (divisor, pivot) == (3, 1)


def test_cli_import_skips_dataclasses_and_inspect():
    # Importing dataclasses pulls in inspect, ast, dis and tokenize, a
    # large share of a CLI call's start-up; typing alone costs a few ms.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import wpheights.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("value", [2.5, 2.7, Fraction(5, 2)])
def test_non_integer_weights_and_root_indexes_are_refused(value):
    # int() would truncate each of these to 2.
    with pytest.raises(ValueError):
        WeightSystem((value, 3))
    with pytest.raises(ValueError):
        ExactRoot(2, value)


@pytest.mark.parametrize("value", [2.0, Fraction(4, 2)])
def test_integral_weights_and_root_indexes_are_accepted(value):
    assert WeightSystem((value, 3)).weights == (2, 3)
    assert type(WeightSystem((value, 3)).weights[0]) is int
    assert ExactRoot(2, value) == ExactRoot(2, 2)
    assert type(ExactRoot(2, value).index) is int


@pytest.mark.parametrize("field", FactorConfig.__slots__)
def test_non_integer_factor_config_fields_are_refused(field):
    # A non-integer bound once failed only on some inputs, deep inside the sieve.
    with pytest.raises(ValueError):
        FactorConfig(**{field: 2.5})


def test_integral_factor_config_fields_are_stored_as_ints():
    config = FactorConfig(trial_bound=1e6, rho_iterations=Fraction(8), rho_attempts=2.0, seed="5")
    assert config == FactorConfig(10**6, 8, 2, 5)
    assert all(type(getattr(config, name)) is int for name in FactorConfig.__slots__)
    assert FactorConfig(trial_bound=-3).trial_bound == -3  # a bound below 2 sweeps no primes
