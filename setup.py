"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so ``pip install -e .``
falls back to this setup script (setuptools' legacy develop mode) instead of
building an editable wheel.  It declares the ``repro`` distribution and its
``src`` layout; the README's Quickstart runs the same code straight from the
source tree with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
