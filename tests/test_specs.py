"""The spec reader: defaults, optional keys and the integer check."""

import pytest

from rmoamp import InvalidParameterError
from rmoamp.specs import PRIOR_KEYS, read_spec, spec_integer, spec_numbers


def test_defaults_fill_left_out_keys_and_optional_keys_stay_out():
    # build_prior picks the ddim schedule by whether alpha_bar is present
    kind, values = read_spec({"kind": "ddim", "num_steps": 5}, PRIOR_KEYS,
                             "prior")
    assert kind == "ddim"
    assert values == {"predictor": {}, "num_steps": 5, "alpha_start": 0.999,
                      "alpha_end": 0.005, "mode": "trajectory"}


@pytest.mark.parametrize("value", [True, 2.0, "3", -1])
def test_integer_check_refuses_bools_floats_words_and_low_values(value):
    with pytest.raises(InvalidParameterError,
                       match=r"config 'n' must be an integer >= 0"):
        spec_integer(value, "n", 0, "config")


@pytest.mark.parametrize("ndim", [None, 1])
def test_numbers_check_refuses_a_ragged_list(ndim):
    # numpy cannot make an array of it, and raises ValueError
    with pytest.raises(InvalidParameterError,
                       match=r"prior spec 'means' must be .*numbers, got "
                             r"\[\[0.0, 1.0\], \[2.0\]\]"):
        spec_numbers([[0.0, 1.0], [2.0]], "means", ndim, "prior spec")
