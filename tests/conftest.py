"""Suite-wide test settings.

Hypothesis draws its examples from a seed derived from each test, so every
run of the suite tests the same examples and a failure reproduces as it
was seen.  Another profile can still be chosen with pytest's
``--hypothesis-profile`` option.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
