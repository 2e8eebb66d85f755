"""Config: every cap is a positive int, and anything else is refused with a
ValueError naming the field."""

from dataclasses import fields

import pytest

from torslat.config import DEFAULTS, Config

CAPS = [f.name for f in fields(Config)]


@pytest.mark.parametrize("name", CAPS)
@pytest.mark.parametrize("value", [True, 2.5, "10", None], ids=["bool", "float", "str", "None"])
def test_cap_that_is_not_an_int_is_refused(name, value):
    with pytest.raises(ValueError, match=name):
        Config(**{name: value})


@pytest.mark.parametrize("name", CAPS)
@pytest.mark.parametrize("value", [0, -1])
def test_cap_that_is_not_positive_is_refused(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        Config(**{name: value})


def test_positive_ints_are_accepted():
    assert Config() == DEFAULTS
    assert all(getattr(Config(**{name: 1}), name) == 1 for name in CAPS)
