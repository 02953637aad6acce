"""Shared fixtures."""

import os

import pytest

import semigraded


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(semigraded.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
