import importlib
import re
from pathlib import Path

import cete

from conftest import run_fresh


def test_each_export_is_defined_in_the_module_it_names():
    for name, module in cete._EXPORTS.items():
        obj = getattr(cete, name)
        assert obj is getattr(importlib.import_module(f"cete.{module}"), name)
        if callable(obj):
            assert obj.__module__ == f"cete.{module}", name
    assert cete.__all__ == ["__version__", *cete._EXPORTS]


def test_readme_names_every_export():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    assert [name for name in cete._EXPORTS
            if not re.search(rf"\b{name}\b", readme)] == []


def test_only_cli_keeps_a_list_of_names():
    # _EXPORTS is the one list of public names; cli is not re-exported
    for module in cete._SUBMODULES:
        assert hasattr(getattr(cete, module), "__all__") == (module == "cli")


# cete binds its exports on first use, so each of these runs in a fresh
# interpreter, where no earlier import has bound them already

def test_star_import_binds_every_export():
    assert run_fresh("from cete import *\nimport cete, json\n"
                     "print(json.dumps([n for n in cete.__all__ "
                     "if n not in globals()]))") == []


def test_dir_lists_every_export():
    assert set(cete.__all__) <= set(run_fresh(
        "import cete, json\nprint(json.dumps(dir(cete)))"))


def test_submodule_resolves_as_an_attribute():
    assert run_fresh("import cete, json\n"
                     "print(json.dumps(cete.causality.lag_scan.__module__))"
                     ) == "cete.causality"


def test_unknown_name_raises_attribute_error():
    assert run_fresh("import cete, json\ntry:\n    cete.nope\n"
                     "except AttributeError as err:\n"
                     "    print(json.dumps(str(err)))"
                     ) == "module 'cete' has no attribute 'nope'"
