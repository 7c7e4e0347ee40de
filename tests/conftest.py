"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def refuse_hard_exit(monkeypatch):
    """`os._exit` reached in the test process would end pytest at once with
    the command's exit code, 0 included, and no report: make it fail the
    test instead.  Only `cli.run` may call it, and only in a child."""

    def refuse(code):
        raise AssertionError(f"os._exit({code}) reached in the test process")

    monkeypatch.setattr(os, "_exit", refuse)
