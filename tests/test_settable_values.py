"""The count of settable values is a budget: an option that takes one value
in use is a constant, so a change that adds an option must raise this bound
and say why."""

import ast
import pathlib

import epsensor

SETTABLE_VALUES = 34

PACKAGE = pathlib.Path(epsensor.__file__).parent


def _defaulted(function):
    args = function.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _public_defaults(body):
    """Defaulted parameters of the public functions in `body` and of the
    public methods of its public classes."""
    count = 0
    for node in body:
        public = not getattr(node, "name", "_").startswith("_")
        if public and isinstance(node, ast.FunctionDef):
            count += _defaulted(node)
        elif public and isinstance(node, ast.ClassDef):
            count += _public_defaults(node.body)
    return count


def _cli_flags(tree):
    return sum(isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
               and isinstance(node.args[0], ast.Constant) and node.args[0].value.startswith("-")
               for node in ast.walk(tree))


def settable_values():
    """Defaulted parameters of public functions and methods, plus CLI flags."""
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    return sum(_public_defaults(tree.body) + _cli_flags(tree) for tree in trees)


def test_settable_values_stay_within_the_budget():
    assert settable_values() <= SETTABLE_VALUES
