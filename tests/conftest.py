"""Suite-wide test settings and fixtures.

Hypothesis draws its examples from a seed derived from each test, so every
run of the suite tests the same examples and a failure reproduces as it
was seen.  Another profile can still be chosen with pytest's
``--hypothesis-profile`` option.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="module")
def pool():
    """One worker for the library calls that take a pool, as ``cli.main``
    passes them, started before any test counts threads."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(int).result()
        yield pool
