import re
from pathlib import Path

import discoparse

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_names():
    """Names of the one-line `- `name` — ...` entries of the README's
    "Library use" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)` — ", section, flags=re.MULTILINE)


def test_all_is_the_readme_public_name_list():
    listed = _library_use_names()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(discoparse.__all__) == set(listed)
    assert all(hasattr(discoparse, name) for name in listed)
