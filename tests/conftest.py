"""Tier-1 validates every SSet and SMap it builds.

Building an SSet or SMap never validates it: ssw calls ``_validate()`` only
where input enters the program and at proof steps.  Every other result is
correct by construction from validated inputs.  For the whole test run, each
``__init__`` here validates what it built, so that claim is tested on every
build rather than assumed.
"""
import pytest

from ssw.core import SMap, SSet
from ssw.ops import clear_memos


def _validating(init):
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._validate()

    return __init__


SSet.__init__ = _validating(SSet.__init__)
SMap.__init__ = _validating(SMap.__init__)


@pytest.fixture
def fresh_memos():
    """Every process memo empty when the test starts and when it ends, for a
    test that patches a constructor: nothing built before it is returned to
    it, and nothing it built is returned to a later test."""
    clear_memos()
    yield
    clear_memos()
