"""Tier-1 runs with full validation on.

ssw's internal constructors build their results with ``validate=False``: each
result is correct by construction from inputs that were validated where they
entered the program.  For the whole test run, every SSet and SMap that one of
the constructors in ``TRUSTED`` builds is validated here anyway, so the claim
is tested rather than assumed.  ``src/ssw`` has no switch for this: the
constructors are recognised by the code object of the function that calls
``SSet``/``SMap``.
"""
import inspect
import sys
from collections import Counter

import pytest

from ssw import core, fibration, slices, tensor
from ssw.core import SMap, SSet

TRUSTED = (
    core.standard_simplex,
    core.subcomplex,
    core.simplex_map,
    core.constant_map,
    core.empty_sset,
    core.product,
    core.product_map,
    core.join_sset,
    core.join_map,
    core.pushout_mono,
    core.opposite,
    tensor.thick_join_map,
    slices.build_representable,
    slices.reindex_map,
    fibration.weak_cartesian_via_slice,
    fibration.empty_cone,
)
_NAMES = {inspect.unwrap(f).__code__: f.__name__ for f in TRUSTED}

# Validations made here, per constructor, for the whole run.
VALIDATED: Counter = Counter()


def _validating(init):
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if not kwargs.get("validate", True):
            name = _NAMES.get(sys._getframe(1).f_code)
            if name is not None:
                self._validate()
                VALIDATED[name] += 1

    return __init__


SSet.__init__ = _validating(SSet.__init__)
SMap.__init__ = _validating(SMap.__init__)


@pytest.fixture
def trusted_validations() -> Counter:
    """The run's count of validations per trusted constructor."""
    return VALIDATED
