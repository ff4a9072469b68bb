"""Test-session settings shared by every test module."""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw a fixed sequence of examples: the same inputs on every
# run, no deadline on a loaded machine, and no example database on disk.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None,
                          max_examples=30)
settings.load_profile("deterministic")

_STORAGE = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Even without a database, Hypothesis caches the literals of local
    # modules under its home directory, .hypothesis/ in the working
    # directory by default; a temporary directory holds that cache instead.
    config.stash[_STORAGE] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[_STORAGE].name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_STORAGE].cleanup()
