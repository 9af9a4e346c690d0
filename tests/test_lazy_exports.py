"""Lazy package exports (``repro._lazy``).

Every package ``__init__`` re-exports its public names on first read
(PEP 562), so a figure sweep does not import the frontend, the C
exporters or the simdize builders it never runs.  These tests pin
that every public name still resolves and is listed by ``dir()``,
that ``repro.simdize`` stays the driver function, and that the warm
sweep's imports leave the unused packages unloaded.
"""

import importlib
import os
import subprocess
import sys

import pytest

PACKAGES = ("repro", "repro.bench", "repro.lang", "repro.export",
            "repro.codegen", "repro.reorg", "repro.align",
            "repro.baselines", "repro.simdize", "repro.vir", "repro.ir",
            "repro.machine")

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter on this tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listing = dir(package)
    for attr in package.__all__:
        assert getattr(package, attr) is not None
        assert attr in listing


def test_unknown_name_raises_attribute_error():
    import repro.machine

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.machine.no_such_name  # noqa: B018


def test_public_names_are_the_defining_objects():
    import repro
    import repro.bench
    from repro.bench.figures import figure11
    from repro.simdize.driver import simdize

    assert repro.simdize is simdize
    assert repro.bench.figure11 is figure11


def test_simdize_stays_the_function_after_a_submodule_import():
    out = _fresh("import repro.simdize.verify, repro; "
                 "print(repro.simdize.__module__)")
    assert out.strip() == "repro.simdize.driver"


def test_sweep_imports_skip_unused_packages():
    out = _fresh(
        "import sys\n"
        "import repro.bench.figures, repro.bench.runner, repro.cli\n"
        "import repro.machine.backend, repro.machine.native\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.startswith('repro'))))\n")
    loaded = set(out.split())
    for absent in ("repro.lang.frontend", "repro.export.cgen",
                   "repro.export.portable", "repro.reorg.build",
                   "repro.codegen.loopgen", "repro.baselines.peeling",
                   "repro.bench.tables"):
        assert absent not in loaded
