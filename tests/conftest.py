import random

import pytest


@pytest.fixture
def rng():
    return random.Random(20260817)


@pytest.fixture
def drifting_point_sums(monkeypatch):
    """Replace the per-point localization sums by values that change from
    one evaluation point to the next, so the two-point check must fail.
    Returns the number of integrands of each call, in call order."""
    from fractions import Fraction

    from ellgenus.homog import HomogeneousSpace

    calls = []

    def drifting(self, point, integrands, section=()):
        calls.append(len(integrands))
        return [Fraction(len(calls))] * len(integrands)

    monkeypatch.setattr(HomogeneousSpace, "localization_sum", drifting)
    return calls


@pytest.fixture
def no_walk(monkeypatch):
    """Fail fast if anything starts enumerating a Weyl orbit, so a test of
    a refused huge space cannot hang when the refusal is missing."""
    from ellgenus import roots

    def refuse(*args, **kwargs):
        raise AssertionError("the walk must not start")

    monkeypatch.setattr(roots, "_walk", refuse)
