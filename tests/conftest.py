"""Fixtures shared by the test modules."""

import dataclasses

import pytest

from atlb import search


@pytest.fixture
def force_feasible(monkeypatch):
    """force_feasible(a) makes search.feasible call annotation a feasible at
    every c."""

    def force(annotation):
        solo = search.feasible

        def forced(*args, **kwargs):
            f = solo(*args, **kwargs)
            return dataclasses.replace(f, feasible=True) if f.annotation == annotation else f

        monkeypatch.setattr(search, "feasible", forced)

    return force
