import contextlib
import importlib
import io
import pathlib
import re

import pytest

import scherk
from scherk.cli import ROUTE_GAP_BOUND

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_library_code() -> str:
    """The Python block of README's Library section."""
    section = README.read_text().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs_and_its_routes_agree():
    code = readme_library_code()
    imported = re.search(r"from scherk import (.*)", code).group(1)
    assert {name.strip() for name in imported.split(",")} <= set(
        scherk.__all__)
    env = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, env)
    scalar_wk = env["wk_scalar"](env["params"], env["zero"].S).value
    assert abs(scalar_wk - env["sol"].WK) <= ROUTE_GAP_BOUND


def test_package_surface_resolves_from_the_home_modules():
    # Each public name is looked up in its home module on first access.
    assert len(set(scherk.__all__)) == len(scherk.__all__)
    for name in scherk.__all__:
        home = importlib.import_module(f"scherk.{scherk._HOME[name]}")
        want = home if name == "errors" else getattr(home, name)
        assert getattr(scherk, name) is want, name
    star = {}
    exec("from scherk import *", star)
    assert set(scherk.__all__) <= set(star)
    assert set(scherk.__all__) <= set(dir(scherk))
    with pytest.raises(AttributeError, match="module 'scherk' has no "
                                             "attribute 'no_such_name'"):
        scherk.no_such_name
