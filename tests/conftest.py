# Makes the sibling oracles module importable from any test file, and sets
# the hypothesis profile every property test runs under.
import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# no per-example deadline (a slow machine must not fail a correct example)
# and a fixed example sequence, so every run checks the same cases
settings.register_profile("fairprice", deadline=None, derandomize=True)
settings.load_profile("fairprice")
