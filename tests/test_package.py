import cete
from cete import causality, copula, core, ingest, knn_entropy, oracle

MODULES = (core, copula, knn_entropy, causality, oracle, ingest)


def test_exports_are_the_module_exports():
    expected = {"__version__", "CeteError"}
    for module in MODULES:
        expected.update(module.__all__)
    assert set(cete.__all__) == expected
    assert len(cete.__all__) == len(expected)
    for name in cete.__all__:
        getattr(cete, name)
