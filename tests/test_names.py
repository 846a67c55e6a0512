"""Pinned type names and user alias files."""

import json

import pytest

from flagmaps import (
    MapError,
    ParseError,
    canonical_code,
    enumerate_types,
    load_aliases,
    lookup,
    pinned_type,
    registry,
)
from flagmaps.names import ALIAS_ENV_VAR

PINNED = (
    "1",
    "2", "2_0", "2_1", "2_2", "2_01", "2_02", "2_12",
    "3^0", "3^2", "3^02",
    "4_A", "4_C", "4_F", "4_G", "4_H",
    "6_D", "6_M",
)


def test_registry_holds_the_pinned_names():
    reg = registry()
    assert len(reg) == 18
    assert sorted(reg.values()) == sorted(PINNED)
    for code, name in reg.items():
        assert canonical_code(pinned_type(name)) == code


def test_registry_returns_a_copy():
    reg = registry()
    reg.clear()
    assert len(registry()) == 18


def test_pinned_type_rejects_unknown_names():
    with pytest.raises(KeyError):
        pinned_type("5_Z")


def test_lookup_prefers_pinned_names():
    code = canonical_code(pinned_type("4_F"))
    assert lookup(code) == "4_F"
    # an alias for a pinned code never wins
    assert lookup(code, aliases={str(code): "mine"}) == "4_F"


def test_lookup_misses_are_none():
    unnamed = [c for c in enumerate_types(4) if lookup(c) is None]
    assert len(unnamed) == 17
    code = unnamed[0]
    assert lookup(code, aliases={str(code): "mine"}) == "mine"


def test_load_aliases_from_file(tmp_path):
    code = next(c for c in enumerate_types(4) if lookup(c) is None)
    path = tmp_path / "aliases.json"
    path.write_text(json.dumps({str(code): "favourite"}))
    aliases = load_aliases(path)
    assert aliases
    assert lookup(code, aliases=aliases) == "favourite"


def test_load_aliases_from_environment(tmp_path, monkeypatch):
    code = next(c for c in enumerate_types(4) if lookup(c) is None)
    path = tmp_path / "aliases.json"
    path.write_text(json.dumps({str(code): "env-name"}))
    monkeypatch.setenv(ALIAS_ENV_VAR, str(path))
    aliases = load_aliases()
    assert lookup(code, aliases=aliases) == "env-name"


def test_load_aliases_missing_file_is_empty():
    assert load_aliases("/nonexistent/aliases.json") == {}


def test_load_aliases_reports_bad_json_with_its_position(tmp_path):
    path = tmp_path / "aliases.json"
    path.write_text('{\n  "a": 1,\n  oops\n}')
    with pytest.raises(ParseError) as err:
        load_aliases(path)
    assert (err.value.line, err.value.column) == (3, 3)


def test_load_aliases_rejects_a_json_array(tmp_path):
    path = tmp_path / "aliases.json"
    path.write_text("[1,2]")
    with pytest.raises(MapError, match="JSON object"):
        load_aliases(path)


def test_load_aliases_rejects_a_directory(tmp_path):
    with pytest.raises(MapError, match="cannot read"):
        load_aliases(tmp_path)


def test_load_aliases_rejects_non_ascii_bytes(tmp_path):
    path = tmp_path / "aliases.json"
    path.write_bytes('{"a": 1,\n "b": "café"}'.encode("utf-8"))
    with pytest.raises(ParseError) as err:
        load_aliases(path)
    assert (err.value.line, err.value.column) == (2, 11)
