"""A public module with no ``__all__`` (API001)."""

from random import choice as pick

GAIN_TABLE = {"low": 0.5, "high": 2.0}


def choose(options):
    return pick(options)
