"""Test-wide hypothesis profile: no deadline (the oracles build dense
matrices) and derandomized draws, so every run checks the same examples."""

from hypothesis import settings

settings.register_profile("stepgap", deadline=None, derandomize=True)
settings.load_profile("stepgap")
