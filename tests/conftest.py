"""Tier-1 validates every SSet and SMap it builds.

Building an SSet or SMap never validates it: ssw calls ``_validate()`` only
where input enters the program and at proof steps.  Every other result is
correct by construction from validated inputs.  For the whole test run, each
``__init__`` here validates what it built, so that claim is tested on every
build rather than assumed.
"""
from ssw.core import SMap, SSet


def _validating(init):
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._validate()

    return __init__


SSet.__init__ = _validating(SSet.__init__)
SMap.__init__ = _validating(SMap.__init__)
