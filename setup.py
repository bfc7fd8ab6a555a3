"""Setup shim.

Metadata lives in setup.cfg.  This file keeps the legacy
``python setup.py develop`` install working on offline machines that
lack the ``wheel`` package, where ``pip install -e .`` stops at the
missing ``bdist_wheel`` command.
"""

from setuptools import setup

setup()
