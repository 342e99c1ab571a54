"""Setuptools packaging for the ``repro`` package.

All project metadata lives here (the repository has no ``pyproject.toml``);
the version is read from ``src/repro/_version.py`` so there is one place to
bump it.  Plain ``pip install -e .`` works, as do legacy editable installs —
``pip install -e . --no-use-pep517`` — in offline environments where the
``wheel`` package is unavailable.
"""

import os
import re

from setuptools import find_packages, setup


def _read_version() -> str:
    path = os.path.join(os.path.dirname(__file__), "src", "repro", "_version.py")
    with open(path, encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE)
    if match is None:
        raise RuntimeError(f"no __version__ in {path}")
    return match.group(1)


setup(
    name="repro",
    version=_read_version(),
    package_dir={"": "src"},
    packages=find_packages("src"),
)
