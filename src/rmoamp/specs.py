"""The spec format: the keys of each source, channel, prior and predictor
kind, and the one reader that checks them.

A spec is a dict of a ``kind`` and that kind's keys.  :func:`read_spec`
refuses a key the kind does not declare, so a misspelt key fails instead
of leaving the default in place.
"""

from collections import namedtuple

import numpy as np

from .errors import InvalidParameterError


def spec_integer(value, key, low, label):
    """``value`` as an int, when it is an integer >= ``low``; ``label``
    names the spec in the error."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise InvalidParameterError(
            f"{label} {key!r} must be an integer >= {low}, got {value!r}")
    return int(value)


def spec_numbers(value, key, ndim, label):
    """``value``, when it is a finite number (``ndim`` 0), a flat list of
    finite numbers (``ndim`` 1) or finite numbers of any shape (``ndim``
    None); ``label`` names the spec in the error."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        array = None
    if (array is None or array.dtype.kind not in "iuf"
            or ndim not in (None, array.ndim)):
        what = {0: "a number", 1: "a list of numbers", None: "numbers"}[ndim]
        raise InvalidParameterError(
            f"{label} {key!r} must be {what}, got {value!r}")
    if not np.all(np.isfinite(array)):
        raise InvalidParameterError(
            f"{label} {key!r} must be finite, got {value!r}")
    return value


def spec_strings(value, key, listed, label):
    """``value``, when it is a string, or with ``listed`` a non-empty list
    of strings."""
    strings = value if listed and isinstance(value, list) else [value]
    if not (strings and all(isinstance(item, str) for item in strings)
            and listed == isinstance(value, list)):
        what = "a non-empty list of strings" if listed else "a string"
        raise InvalidParameterError(
            f"{label} {key!r} must be {what}, got {value!r}")
    return value


# defaults of a key that must be given and of one that may be left out
REQUIRED, OPTIONAL = object(), object()

# One spec key: ``check(value, key, bound, label)`` or None (the value goes
# as given to a constructor that checks it), the check's bound (a minimum,
# an ndim, or listed), the default, and keys it may not come with.
Key = namedtuple("Key", "check bound default excludes",
                 defaults=(None, None, OPTIONAL, ()))


_N, _SEED = Key(spec_integer, 1, REQUIRED), Key(spec_integer, 0, REQUIRED)

SOURCE_KEYS = {
    "gaussian": {"n": _N, "seed": _SEED, "mean": Key(spec_numbers, 0, 0.0),
                 "std": Key(spec_numbers, 0, 1.0)},
    "gauss-mixture": {"n": _N, "seed": _SEED,
                      **{key: Key(spec_numbers, 1, REQUIRED)
                         for key in ("weights", "means", "stds")}},
    "piecewise-constant": {"n": _N, "seed": _SEED,
                           "num_pieces": Key(spec_integer, 1, REQUIRED)},
    "pgm": {"path": Key(spec_strings, False, REQUIRED)},
    "matrix": {"path": Key(spec_strings, False, REQUIRED)},
}

CHANNEL_KEYS = {
    "identity": {},
    "conditioned": {"kappa": Key(default=10.0),
                    "spectrum_shape": Key(default="geometric"),
                    "factor_method": Key(default="haar")},
    "tdl-fading": {"num_taps": Key(spec_integer, 1, 3),
                   "tap_powers": Key(spec_numbers, 1, (0.6, 0.3, 0.1)),
                   "doppler_rate": Key(spec_numbers, 0, 0.01),
                   "num_symbols": Key(spec_integer, 1, 16)},
}

_SCHEDULE = ("num_steps", "alpha_start", "alpha_end")
PRIOR_KEYS = {
    "analytic-gaussian": {"mean": Key(spec_numbers, 0, 0.0),
                          "var0": Key(spec_numbers, 0, 1.0)},
    "analytic-gauss-mixture": {key: Key(spec_numbers, None, REQUIRED)
                               for key in ("weights", "means", "variances")},
    "dct-soft-threshold": {},
    "ddim": {"predictor": Key(default={}),
             "num_steps": Key(spec_integer, 2, 50),
             "alpha_start": Key(spec_numbers, 0, 0.999),
             "alpha_end": Key(spec_numbers, 0, 0.005),
             "alpha_bar": Key(spec_numbers, 1, excludes=_SCHEDULE),
             "mode": Key(default="trajectory")},
    "flow-matching": {"predictor": Key(default={}),
                      "num_steps": Key(spec_integer, 1, 20)},
    "external-bridge": {"argv": Key(spec_strings, True,
                                    excludes=("host", "port")),
                        "host": Key(spec_strings, False),
                        "port": Key(spec_integer, 0),
                        "timeout": Key(spec_numbers, 0, 5.0),
                        "snr_kind": Key(default="flow-matching")},
}

PREDICTOR_KEYS = {"gaussian": PRIOR_KEYS["analytic-gaussian"]}


def read_spec(spec, table, label, default_kind=None):
    """``(kind, values)``: the spec's keys, checked, and the defaults of
    the keys it leaves out; a spec without a kind is ``default_kind``.

    A spec that is not a dict, an unknown kind, a key the kind does not
    declare, a missing required key, a value its check refuses, and two
    keys that may not be given together raise InvalidParameterError naming
    the key; ``label`` names the spec.
    """
    if not isinstance(spec, dict):
        raise InvalidParameterError(f"{label} must be a spec dict, got {spec!r}")
    if "kind" not in spec and default_kind is None:
        raise InvalidParameterError(f"{label} spec has no 'kind' key")
    kind = spec.get("kind", default_kind)
    # a list or dict is not a name, and unhashable
    keys = table.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise InvalidParameterError(f"unknown {label} kind {kind!r}")
    for key in spec:
        if key != "kind" and key not in keys:
            raise InvalidParameterError(
                f"{label} spec has unknown key {key!r}; kind {kind!r} takes "
                f"{', '.join(map(repr, keys)) or 'no keys'}")
    values = {}
    for key, rule in keys.items():
        if key in spec:
            for other in rule.excludes:
                if other in spec:
                    raise InvalidParameterError(
                        f"{label} spec gives both {key!r} and {other!r}; "
                        f"give one")
            values[key] = (spec[key] if rule.check is None else
                           rule.check(spec[key], key, rule.bound,
                                      f"{label} spec"))
        elif rule.default is REQUIRED:
            raise InvalidParameterError(f"{label} spec has no {key!r} key")
        elif rule.default is not OPTIONAL:
            values[key] = rule.default
    return kind, values
