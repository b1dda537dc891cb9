"""Fixtures shared by the test modules."""

import pytest

from sectint.actions import algebra_split


@pytest.fixture
def corrupt_metric():
    """corrupt(action, factor): until the test ends, the split of every
    action of action's kind has factor * m for its m rows, a wrong metric on
    m that the check suite must catch.  algebra_split's cache is cleared
    before and after, so no split outlives its metric."""
    with pytest.MonkeyPatch.context() as patch:
        def corrupt(action, factor):
            kind = type(action)
            original = kind.split_rows

            def scaled(self):
                h, w, m = original(self)
                return h, w, factor * m

            patch.setattr(kind, "split_rows", scaled)
            algebra_split.cache_clear()

        algebra_split.cache_clear()
        yield corrupt
    algebra_split.cache_clear()
