"""check_int, the one integer check, and the guard that keeps it the one."""

import ast
from pathlib import Path

import numpy as np
import pytest

from penet.errors import ConfigError, FormatError, SamplingError, check_int

SRC = Path(__file__).resolve().parent.parent / "src" / "penet"


@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_check_int_returns_a_plain_int(value):
    out = check_int(value, "n", 1)
    assert type(out) is int and out == 3


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, 2.5,
                                   np.float32(2), "2", None, [2],
                                   np.array(2), np.array([2])])
def test_check_int_rejects_what_is_not_an_integer(value):
    with pytest.raises(ConfigError,
                       match=r"^n must be an integer, got "):
        check_int(value, "n", 0)


def test_check_int_bounds_are_inclusive():
    assert check_int(0, "n", 0, 0) == 0
    assert check_int(5, "n", 1, 5) == 5
    with pytest.raises(ConfigError, match=r"^n must be >= 1, got 0$"):
        check_int(0, "n", 1, 5)
    with pytest.raises(ConfigError, match=r"^n must be <= 5, got 6$"):
        check_int(np.int64(6), "n", 1, 5)
    assert check_int(10 ** 30, "n", 1) == 10 ** 30


@pytest.mark.parametrize("error", [FormatError, SamplingError])
def test_check_int_raises_the_given_error(error):
    for value in (None, -1, 9):
        with pytest.raises(error) as info:
            check_int(value, "x", 0, 8, error)
        assert type(info.value) is error


def _integer_rule_uses(tree: ast.AST):
    """Line numbers of ``isinstance(..., bool)``, with bool alone or in a
    tuple, and of every ``np.integer`` or ``numpy.integer``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(n, ast.Name) and n.id == "bool"
                   for n in names):
                yield node.lineno
        if isinstance(node, ast.Attribute) and node.attr == "integer" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            yield node.lineno


def test_guard_finds_the_integer_rule():
    source = ("import numpy as np\n"
              "def f(v):\n"
              "    return isinstance(v, bool) or isinstance(v, (int, bool))\n"
              "g = np.integer\n")
    assert sorted(_integer_rule_uses(ast.parse(source))) == [3, 3, 4]


def test_only_check_int_knows_the_integer_rule():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "errors.py":
            check = next(node for node in tree.body
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "check_int")
            allowed = set(_integer_rule_uses(check))
            assert allowed, "check_int no longer tests bool and np.integer"
        outside += [f"{path.name}:{line}" for line in
                    _integer_rule_uses(tree) if line not in allowed]
    assert outside == [], "integer checks outside errors.check_int"
