"""Exception types: every atckit error survives a trip through pickle, and
every ``raise`` in the package raises one of them or an ``OSError``."""

import ast
import builtins
import inspect
import pickle
from pathlib import Path

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


SOURCE = Path(atckit.errors.__file__).parent

#: (file, enclosing function, class) -> why that raise is outside the taxonomy
OUTSIDE_THE_TAXONOMY = {
    ("scores.py", "score_batch", "TypeError"): "an argument that is no score function at all is a caller's type fault",
    ("ordering.py", "_verdicts", "AssertionError"): "a witness that does not reproduce is a fault of atckit, not of its input",
    ("__init__.py", "__getattr__", "AttributeError"): "a module's __getattr__ must raise it, or hasattr and imports break",
}
#: (file, enclosing function) -> why a raise there names no class: it passes on an error made elsewhere
PASSED_ON = {
    ("io.py", "load_dump"): "type(exc)(...) raises the caught AtckitError's own type, the path in front",
    ("harness.py", "_join"): "the error the forked worker met, raised in the parent's place",
}


class _Raises(ast.NodeVisitor):
    """Collects (file, enclosing function, the raised class or None) for every ``raise X``."""

    def __init__(self, file):
        self.file, self.function, self.found = file, "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Raise(self, node):
        if node.exc is not None:  # a bare raise passes on what its handler caught
            named = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = named.id if isinstance(named, ast.Name) else None
            cls = getattr(atckit.errors, name, getattr(builtins, name, None)) if name else None
            self.found.append((self.file, self.function, cls if inspect.isclass(cls) else None))


def _raises():
    for path in sorted(SOURCE.glob("*.py")):
        walk = _Raises(path.name)
        walk.visit(ast.parse(path.read_text()))
        yield from walk.found


def test_every_raise_names_a_package_error_or_an_os_error():
    outside, passed_on = set(), set()
    for file, function, cls in _raises():
        if cls is None:
            passed_on.add((file, function))
        elif not issubclass(cls, (AtckitError, OSError)):
            outside.add((file, function, cls.__name__))
    assert outside == set(OUTSIDE_THE_TAXONOMY)
    assert passed_on == set(PASSED_ON)


@pytest.mark.parametrize("call, message", [
    (lambda: atckit.MetricValue(1.5, atckit.simplex.Convention.ERROR), r"^metric value 1.5 outside \[0, 1\]$"),
    (lambda: atckit.MonotoneTransform(atckit.ScoreFunction.MAX_CONF, scale=0.0), "^monotone transform needs a positive scale$"),
    (lambda: atckit.MonotoneTransform(atckit.ScoreFunction.MAX_CONF, exponent=2), "^monotone transform needs a positive odd exponent$"),
    (lambda: atckit.harness.AggregateRow(2, "max", 0.1, 0.2, 0.1), "^ci_low must not exceed ci_high$"),
], ids=["metric-value", "transform-scale", "transform-exponent", "aggregate-row"])
def test_a_bad_value_object_raises_the_package_error(call, message):
    # a ValueError still, so a caller's except ValueError keeps working
    with pytest.raises(atckit.errors.InvalidArgumentError, match=message):
        call()
