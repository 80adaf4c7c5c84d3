"""Setuptools entry point.

Kept self-contained (no ``pyproject.toml`` required) so editable installs
work in offline environments whose setuptools predates PEP 660
editable-wheel support (``pip install -e . --no-build-isolation``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-paco",
    version="1.0.0",
    description=(
        "Reproduction of PaCo: probability-based path confidence "
        "prediction (HPCA 2008), with a parallel cached sweep runner"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # The core package is dependency-free on purpose.
    entry_points={
        "console_scripts": [
            "repro-sweep = repro.__main__:main",
        ],
    },
)
