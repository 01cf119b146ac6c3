"""README's library layout table against the package's modules."""

import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent


def test_layout_table_names_each_module_once():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^\| `rmoamp\.(\w+)` \|", section, flags=re.M)
    modules = [path.stem for path in (ROOT / "src" / "rmoamp").glob("*.py")
               if path.stem != "__init__"]
    assert sorted(named) == sorted(modules)
