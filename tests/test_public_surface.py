"""The public surface is what README documents, and the package keeps its
numpy-only numeric kernel.

* every name in ``harchow.__all__`` and ``harchow.numkit.__all__`` resolves;
* README's "Public API" list names exactly ``harchow.__all__``, each under
  the module that defines it;
* no source file reaches for ``numpy.linalg`` or scipy: the linear algebra
  lives in ``harchow.numkit``, on one pivot rule.
"""

import importlib
import os
import re

import harchow
import harchow.numkit

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src", "harchow")


def readme_api() -> list[tuple[str, str]]:
    """``(module, name)`` of every entry of README's Public API list."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    entries = []
    for bullet in re.split(r"\n- ", section)[1:]:
        module, _, names = bullet.partition(":")
        entries += [
            (module.strip("` "), name) for name in re.findall(r"`(\w+)`", names)
        ]
    return entries


def test_exported_names_resolve():
    for package in (harchow, harchow.numkit):
        assert len(set(package.__all__)) == len(package.__all__)
        for name in package.__all__:
            assert hasattr(package, name), f"{package.__name__}.{name} is missing"


def test_readme_lists_the_exports():
    entries = readme_api()
    names = [name for _, name in entries]
    assert len(names) == len(set(names)), "README lists a name twice"
    assert sorted(names) == sorted(harchow.__all__)
    for module, name in entries:
        owner = importlib.import_module(module)
        assert getattr(owner, name) is getattr(harchow, name), (module, name)


def test_no_linalg_or_scipy_in_the_package():
    banned = ("np.linalg", "numpy.linalg", "scipy")
    for folder, _, files in os.walk(SRC):
        for fname in files:
            if not fname.endswith(".py"):
                continue
            path = os.path.join(folder, fname)
            with open(path) as fh:
                text = fh.read()
            for word in banned:
                assert word not in text, f"{os.path.relpath(path, ROOT)} uses {word}"
