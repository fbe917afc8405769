"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so ``pip install -e .``
falls back to this setup script (setuptools' legacy develop mode) instead of
building an editable wheel.  The script declares no project metadata: the
package is used from the source tree with ``PYTHONPATH=src``, as the README's
Quickstart shows.
"""

from setuptools import setup

setup()
