import re
from pathlib import Path

import lidarplace as lp
from lidarplace import bees, cost, geometry, odr, scenario, segmentation

LIBRARY_MODULES = (bees, cost, geometry, odr, scenario, segmentation)


def test_each_exported_name_is_its_modules_object():
    # A star import lets a later module shadow an earlier module's name.
    assert len(set(lp.__all__)) == len(lp.__all__)
    assert lp.__all__ == [name for module in LIBRARY_MODULES for name in module.__all__]
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(lp, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_readme_names_every_code_the_commands_print():
    # Codes raised as CliError/ScenarioError literals or passed as ``code=``,
    # the grid codes, and the literal error[...] / warning[...] tags.
    root = Path(__file__).resolve().parents[1]
    source = "\n".join(path.read_text(encoding="utf-8") for path in (root / "src").rglob("*.py"))
    name = "([A-Z]+_[A-Z_]+)"  # the docstrings' error[CODE] placeholder has no underscore
    codes = set(re.findall(rf'(?:CliError|ScenarioError)\(\s*"{name}"', source))
    codes |= set(re.findall(rf'\bcode(?:: str)? ?= ?"{name}"', source))
    codes |= set(re.findall(rf"(?:error|warning)\[{name}\]", source))
    codes |= set(scenario._GRID_CODES.values())
    assert {"ARG_INVALID", "GRID_TOO_LARGE", "INVALID_VALUE", "SWEEP_NON_MONOTONE"} <= codes
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert sorted(code for code in codes if not re.search(rf"\b{code}\b", readme)) == []
