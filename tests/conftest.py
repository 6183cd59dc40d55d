"""Fixtures shared by the test modules."""

import dataclasses

import pytest

from atlb import lp, search


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


@pytest.fixture
def walked(monkeypatch):
    """The annotations lp._template walks from now on, in order.  Its cache
    is emptied first, so each is a cache miss: a lookup it answers from the
    cache is not walked."""
    lp._template.cache_clear()
    annotations, template = [], lp._Template
    monkeypatch.setattr(lp, "_Template", lambda a: annotations.append(a) or template(a))
    return annotations
