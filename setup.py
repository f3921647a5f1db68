"""Setuptools metadata for the repro package.

Kept as an executable ``setup.py`` (rather than pyproject-only) so that
``pip install -e . --no-use-pep517`` works on machines without the
``wheel`` package (e.g. air-gapped environments).
"""

import pathlib
import re

from setuptools import find_packages, setup

# Single source of truth for the version: the package itself.
_INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'__version__ = "([^"]+)"', _INIT.read_text()).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Algorithm-based checkpoint-recovery for the conjugate gradient "
        "method (ICPP 2020 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.21",
        "scipy>=1.7",
    ],
    extras_require={
        # The explicit fat-tree graph (FatTree.graph() and its
        # shortest-path cross-check); hop counts are closed-form and
        # nothing on the solve path imports it.
        "topology": ["networkx>=2.6"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
            "repro-serve = repro.serve.http:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Mathematics",
    ],
)
