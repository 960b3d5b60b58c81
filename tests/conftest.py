"""Settings shared by the test modules.

The property modules run hypothesis under one derandomized profile
without an example database, so every run draws the same examples.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None, max_examples=100)
