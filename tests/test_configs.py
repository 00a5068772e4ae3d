"""The checked-in configs validate, and README's walkthroughs name each of them."""

import glob
import os
import re

import pytest

from genreplay.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))


def test_configs_exist():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_config_validates(path, capsys):
    assert main(["validate", "--config", path]) == 0
    assert "config OK" in capsys.readouterr().out


def test_walkthroughs_name_every_config_and_only_existing_paths():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    section = re.search(r"^## Walkthroughs\n(.*?)(?=^## |\Z)", readme, re.M | re.S)
    assert section, "README.md has no '## Walkthroughs' section"
    named = set(re.findall(r"\bconfigs/[\w.-]+", section.group(1)))
    unnamed = {os.path.relpath(p, ROOT) for p in CONFIGS} - named
    assert not unnamed, f"configs missing from README's Walkthroughs: {sorted(unnamed)}"
    missing = [p for p in sorted(named) if not os.path.exists(os.path.join(ROOT, p))]
    assert not missing, f"README's Walkthroughs names paths that do not exist: {missing}"
