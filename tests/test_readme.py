"""README's library layout table against the package's modules, its spec
key table against ``rmoamp.specs``, and its output column table against
the package's column lists."""

import json
import pathlib
import re

from rmoamp import specs
from rmoamp.experiment import SWEEP_COLUMNS, TRIAL_COLUMNS
from rmoamp.receiver import TRACE_COLUMNS

ROOT = pathlib.Path(__file__).parent.parent


def test_layout_table_names_each_module_once():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^\| `rmoamp\.(\w+)` \|", section, flags=re.M)
    modules = [path.stem for path in (ROOT / "src" / "rmoamp").glob("*.py")
               if path.stem != "__init__"]
    assert sorted(named) == sorted(modules)


TABLES = (("source", specs.SOURCE_KEYS), ("channel", specs.CHANNEL_KEYS),
          ("prior", specs.PRIOR_KEYS), ("predictor", specs.PREDICTOR_KEYS))


def describe(name, key):
    """README's words for one spec key: name, check, default, exclusions."""
    if key.check is specs.spec_integer:
        check = f"integer >= {key.bound}"
    elif key.check is specs.spec_numbers:
        check = {0: "number", 1: "list of numbers", None: "numbers"}[key.bound]
    elif key.check is specs.spec_strings:
        check = "non-empty list of strings" if key.bound else "string"
    else:
        check = "builder-checked"
    if key.default is specs.REQUIRED:
        default = "required"
    elif key.default is specs.OPTIONAL:
        default = "optional"
    else:
        default = f"`{json.dumps(key.default)}`"
    words = f"`{name}` {check}, {default}"
    if key.excludes:
        words += ", not with " + ", ".join(f"`{k}`" for k in key.excludes)
    return words


def test_spec_table_is_the_spec_module():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Spec keys", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\w+) \| `([\w-]+)` \| (.*) \|$", section,
                      flags=re.M)
    assert rows == [
        (spec, kind, "; ".join(describe(name, key)
                               for name, key in keys.items()) or "none")
        for spec, table in TABLES for kind, keys in table.items()]


def test_output_column_table_is_the_column_lists():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| file | columns |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| (`.+?`) \| (.*) \|$", table, flags=re.M)
    assert rows == [
        (files, ", ".join(f"`{column}`" for column in columns))
        for files, columns in (("`trace_trial<k>.csv`", TRACE_COLUMNS),
                               ("`trials.csv`", TRIAL_COLUMNS),
                               ("`aggregate.csv`, `sweep.csv`",
                                SWEEP_COLUMNS))]
