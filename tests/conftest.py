import pytest

from siegel2 import GeneratorRegistry


@pytest.fixture(scope="session")
def registry(tmp_path_factory):
    """One shared registry per test session so generators build once."""
    return GeneratorRegistry(tmp_path_factory.mktemp("qexp-cache"))


@pytest.fixture(scope="session")
def gens6(registry):
    names = ("X4", "X6", "X10", "X12", "Y12", "X16", "X35")
    return {name: registry.generator(name, 6) for name in names}


@pytest.fixture
def accumulate_folds(monkeypatch):
    """The ``fold`` flag of every ``series._accumulate`` pass, in call order,
    from a spy bound wherever the package calls it."""
    from siegel2 import expansion, series

    folds, original = [], series._accumulate

    def spy(rows1, rows2, box, width, targets, fold=False):
        folds.append(fold)
        original(rows1, rows2, box, width, targets, fold)

    for module in (series, expansion):
        monkeypatch.setattr(module, "_accumulate", spy)
    return folds
