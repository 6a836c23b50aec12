"""Hypothesis policy: green means the same thing on every clone.

``.hypothesis/`` is git-ignored, so with random seeds a fresh clone passes
or fails by the draw.  The tier-1 command therefore runs the ``tier1``
profile — derandomised: every property test draws the same examples on
every machine, on top of its pinned ``@example``s.  Searching for *new*
counter-examples is a separate, non-blocking job: ``HYPOTHESIS_PROFILE=
explore`` draws from random seeds and gives every property test
``EXPLORE_FACTOR`` times its own ``max_examples`` (CI's ``explore`` job);
what it finds is committed as an ``@example`` on the test it broke, which
is how a find becomes tier-1.
"""

import os

from hypothesis import settings

#: How many times a test's own ``max_examples`` the exploring profile draws.
EXPLORE_FACTOR = 10

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False, print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(items):
    """Under ``explore``, scale the ``max_examples`` each test pins.

    A test's own ``@settings(max_examples=...)`` outranks the profile's, so
    the profile alone could not enlarge it; the decorator leaves its value
    on the test function, where it is replaced here (once per function —
    parametrised items share theirs).
    """
    if PROFILE != "explore":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "obj", None)
        pinned = getattr(test, "_hypothesis_internal_use_settings", None)
        if pinned is not None and id(test) not in scaled:
            scaled.add(id(test))
            test._hypothesis_internal_use_settings = settings(
                pinned, max_examples=pinned.max_examples * EXPLORE_FACTOR
            )
