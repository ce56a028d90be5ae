"""Exception types: every atckit error survives a trip through pickle."""

import inspect
import pickle

import pytest

import atckit.errors
from atckit.errors import AtckitError, NotOnSimplexError

ERRORS = [
    cls for _, cls in inspect.getmembers(atckit.errors, inspect.isclass) if issubclass(cls, AtckitError)
]


def _instances(cls):
    if cls is NotOnSimplexError:
        return [cls(3, "non-finite component", "a.csv: line 5"), cls(4, "components sum to 2")]
    return [cls("a.csv: line 5: something is wrong")]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    for exc in _instances(cls):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert getattr(back, "row", None) == getattr(exc, "row", None)
        assert getattr(back, "detail", None) == getattr(exc, "detail", None)


def test_every_error_class_is_covered():
    assert len(ERRORS) == 9 and NotOnSimplexError in ERRORS
