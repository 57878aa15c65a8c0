import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings

# property tests draw the same cases on every run and have no per-example deadline
settings.register_profile("jacobi-heat", derandomize=True, deadline=None)
settings.load_profile("jacobi-heat")
