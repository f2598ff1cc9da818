"""Byte net: default JSON output of report, validate, acs and classify
--certificate must match the committed golden files exactly.

The goldens cover the generated fans under data/fans and every catalog fan;
data/README.md records how both were made.
"""

import json

import pytest

from conftest import DATA
from topfan import catalog
from topfan.cli import main
from topfan.fanio import emit_fan

GOLDEN = DATA / "golden"

COMMANDS = {
    "report": ["report", "--format", "json"],
    "validate": ["validate", "--format", "json"],
    "acs": ["acs", "--format", "json"],
    "certificate": ["classify", "--certificate", "--format", "json"],
}

EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())

FAN_FILES = sorted(path.stem for path in (DATA / "fans").glob("*.json"))


def _compare(name, path, capsys):
    for label, argv in COMMANDS.items():
        code = main([argv[0], "--fan", str(path), *argv[1:]])
        out = capsys.readouterr().out
        key = f"{name}.{label}"
        assert code == EXIT_CODES[key], key
        assert out.encode() == (GOLDEN / f"{key}.json").read_bytes(), key


def test_golden_index_is_complete():
    names = set(FAN_FILES) | set(catalog.names())
    assert set(EXIT_CODES) == {f"{n}.{label}" for n in names for label in COMMANDS}


@pytest.mark.parametrize("name", FAN_FILES)
def test_generated_fan_output_matches_golden(name, capsys):
    _compare(name, DATA / "fans" / f"{name}.json", capsys)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_output_matches_golden(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(emit_fan(catalog.get(name)))
    _compare(name, path, capsys)
