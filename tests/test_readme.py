import re
from pathlib import Path

import wpheights

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_list_is_the_public_surface():
    section = README.read_text().split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    # The bullets, with their continuation lines; prose after the list may
    # name removed names.
    listing = re.search(r"^- .*?(?=\n\n|\Z)", section, re.S | re.M).group(0)
    names = re.findall(r"`([A-Za-z_]\w*)`", listing)
    assert len(names) == len(set(names))
    assert set(names) == set(wpheights.__all__)
