"""Settings and fixtures shared by the test modules.

The property modules run hypothesis under one derandomized profile
without an example database, so every run draws the same examples.
"""

import pytest
from hypothesis import settings

from orbstab.classifier import LABEL_A5, classify
from orbstab.moduli import _normalize_to_lambda
from orbstab.witness import witness

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None, max_examples=100)


@pytest.fixture(scope="session")
def icosahedron_lambda():
    """The n = 12 K_n point normalized from the icosahedron witness, the
    A_5 (1, 0, 0, 0) entry of classify(12): |G_lambda| = 60."""
    entry = next(e for e in classify(12) if e.label == LABEL_A5)
    return _normalize_to_lambda([p.value() for p in witness(12, entry).points])
