"""Legacy setup shim; all metadata lives in pyproject.toml.

PEP 517 editable installs build a wheel, which fails where the ``wheel``
package is missing and cannot be fetched.  This shim keeps the classic
``setup.py develop`` code path available: ``pip install -e .
--no-use-pep517 --no-build-isolation`` reaches it when ``wheel`` is
installed (pip 23 refuses the flag otherwise), and ``python setup.py
develop`` reaches it with setuptools alone.  Either installs the
``conferr`` entry point.
"""

from setuptools import setup

setup()
