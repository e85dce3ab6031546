import contextlib
import io
import pathlib
import re

import scherk
from scherk.cli import ROUTE_GAP_BOUND

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs_and_its_routes_agree():
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = re.search(r"from scherk import (.*)", code).group(1)
    assert {name.strip() for name in imported.split(",")} <= set(
        scherk.__all__)
    env = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, env)
    scalar_wk = env["wk_scalar"](env["params"], env["zero"].S).value
    assert abs(scalar_wk - env["sol"].WK) <= ROUTE_GAP_BOUND
