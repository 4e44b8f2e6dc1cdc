import cete
from cete import causality, copula, core, ingest, knn_entropy, oracle

from conftest import run_fresh

MODULES = (core, copula, knn_entropy, causality, oracle, ingest)


def test_exports_are_the_module_exports():
    expected = {"__version__", "CeteError"}
    for module in MODULES:
        expected.update(module.__all__)
    assert set(cete.__all__) == expected
    assert len(cete.__all__) == len(expected)
    for name in cete.__all__:
        getattr(cete, name)


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
