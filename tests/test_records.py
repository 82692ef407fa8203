"""The frozen records that runs build: ParticleState, CollisionEvent and
MirrorState are slotted, and each has one private constructor,
``_unchecked``, that writes its slots instead of running ``__init__``."""

import dataclasses
import inspect
from fractions import Fraction

import pytest

import relbilliards as rb
from relbilliards.serialize import events_from_csv, events_to_csv

_PARTICLE = rb.ParticleState(1.25, -0.75, 1.0, -1.0, 3)
_PARTICLE_ARGS = (1.25, -0.75, 1.0, -1.0, 3)
_EVENT_ARGS = (
    2.5, (0, 1), -0.5, (_PARTICLE, _PARTICLE), (_PARTICLE, _PARTICLE),
    True, (True, False),
)
_MIRROR_ARGS = (4, Fraction(1, 3), Fraction(-2, 3), Fraction(-7), 12.0)

#: (class, its field values in field order, a field and a new value)
RECORDS = [
    (rb.ParticleState, _PARTICLE_ARGS, "x", 2.0),
    (rb.CollisionEvent, _EVENT_ARGS, "t", 3.0),
    (rb.MirrorState, _MIRROR_ARGS, "n", 5),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, args, name, value", RECORDS, ids=IDS)
class TestSlottedRecords:
    def test_no_instance_dict(self, cls, args, name, value):
        record = cls(*args)
        assert not hasattr(record, "__dict__")
        assert "__slots__" in vars(cls)

    def test_replace_and_frozen(self, cls, args, name, value):
        record = cls(*args)
        changed = dataclasses.replace(record, **{name: value})
        assert getattr(changed, name) == value
        assert getattr(record, name) != value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)

    def test_private_constructor_takes_the_fields(
        self, cls, args, name, value
    ):
        """``_unchecked`` is a classmethod whose parameters are the
        fields, in field order, each positional and without a default; a
        wrong number of arguments is a TypeError."""
        assert isinstance(vars(cls)["_unchecked"], classmethod)
        params = inspect.signature(cls._unchecked).parameters.values()
        assert [p.name for p in params] == [
            f.name for f in dataclasses.fields(cls)
        ]
        for p in params:
            assert p.kind is p.POSITIONAL_OR_KEYWORD
            assert p.default is p.empty
        with pytest.raises(TypeError):
            cls._unchecked(*args[:-1])
        with pytest.raises(TypeError):
            cls._unchecked(*args, value)

    def test_private_constructor_builds_the_same_record(
        self, cls, args, name, value
    ):
        public, private = cls(*args), cls._unchecked(*args)
        assert type(private) is cls
        assert private == public
        assert hash(private) == hash(public)
        assert repr(private) == repr(public)


def test_runs_build_no_record_through_init(monkeypatch):
    """A 300-event float mirror run, 100 steps of the reduced map each way
    and the run's log read back build every record through ``_unchecked``,
    none through ``__init__``."""
    params, m0 = rb.mirror_initial(4.005, 1.0, 1.0, -1.0)
    start = rb.billiard_from_mirror(params, m0)
    built = []
    for cls in (rb.ParticleState, rb.CollisionEvent, rb.MirrorState):
        init = vars(cls)["__init__"]

        def counting(self, *args, init=init, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    _, log = rb.simulate(start, max_events=300)
    assert len(log) == 300
    states = rb.reduced_trajectory(params, m0, 100, 100)
    assert len(states) == 201
    events, _ = events_from_csv(events_to_csv(log))
    assert events == log
    assert built == []
