"""Settings precedence, coercion, and provider wiring."""

from __future__ import annotations

import json

import pytest

from kgrelay.config import (
    Settings,
    load_settings,
    price_table,
    provider_factory,
    repair_config,
)
from kgrelay.errors import ConfigError, MissingKey, NoScriptMatch
from kgrelay.providers import HttpLlm, ScriptedLlm, TokenOverlapEmbedder
from kgrelay.repair import RepairConfig


def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return p


# --- defaults and precedence ---

def test_defaults():
    s = load_settings()
    assert s == Settings()
    assert s.beam_width == 3
    assert s.relaxation is True


def test_file_values(tmp_path):
    p = write_cfg(
        tmp_path,
        "# comment line\n"
        "\n"
        "kg = data/presidents.tsv\n"
        "beam_width = 5\n"
        "relaxation = off\n"
        "price_general_output=0.9\n",
    )
    s = load_settings(p)
    assert s.kg == "data/presidents.tsv"
    assert s.beam_width == 5
    assert s.relaxation is False
    assert s.price_general_output == 0.9


def test_env_overrides_file(tmp_path, monkeypatch):
    p = write_cfg(tmp_path, "beam_width = 5\nworkers = 2\n")
    monkeypatch.setenv("KGRELAY_BEAM_WIDTH", "7")
    s = load_settings(p)
    assert s.beam_width == 7
    assert s.workers == 2


def test_overrides_beat_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KGRELAY_WORKERS", "1")
    s = load_settings(None, {"workers": 99})
    assert s.workers == 99


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match="unknown setting"):
        load_settings(None, {"beem_width": 3})


# --- file parsing errors ---

@pytest.mark.parametrize(
    "text,message",
    [
        ("beam_width\n", "expected key = value"),
        ("not_a_key = 3\n", "unknown key"),
        ("beam_width = soon\n", "expected an integer"),
        ("price_general_input = much\n", "expected a number"),
        ("relaxation = maybe\n", "expected a boolean"),
    ],
)
def test_file_errors(tmp_path, text, message):
    p = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=message):
        load_settings(p)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_settings(tmp_path / "absent.cfg")


@pytest.mark.parametrize("raw,expected", [
    ("1", True), ("true", True), ("YES", True), ("on", True),
    ("0", False), ("False", False), ("no", False), ("OFF", False),
])
def test_bool_spellings(tmp_path, raw, expected):
    p = write_cfg(tmp_path, f"relaxation = {raw}\n")
    assert load_settings(p).relaxation is expected


# --- derived objects ---

def test_repair_config_mapping():
    s = Settings(beam_width=2, relation_filter=6, path_filter=12, max_depth_cap=3)
    assert repair_config(s) == RepairConfig(2, 6, 12, 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beam_width": 0},
        {"relation_filter": -1},
        {"path_filter": 0},
        {"max_depth_cap": 0},
    ],
)
def test_repair_config_validation(kwargs):
    with pytest.raises(ConfigError):
        repair_config(Settings(**kwargs))


def test_repair_config_checks_its_own_fields():
    # A config built without the settings, as a run_batch caller may
    # build one, is checked too.
    for name in ("beam_width", "relation_filter", "path_filter", "max_depth_cap"):
        with pytest.raises(ConfigError, match=f"{name}.* must be >= 1"):
            RepairConfig(**{name: 0})


def test_price_table():
    s = Settings(price_specialized_input=1.0, price_general_output=2.0)
    assert price_table(s) == {
        "specialized": (1.0, 0.25),
        "general": (0.15, 2.0),
    }


# --- provider factory ---

def script_file(tmp_path, name, entries):
    p = tmp_path / name
    p.write_text(json.dumps(entries), encoding="utf-8")
    return str(p)


def test_factory_builds_fresh_scripted_state(tmp_path):
    spec = script_file(tmp_path, "spec.json", [{"match": "q", "reply": "one use"}])
    gen = script_file(tmp_path, "gen.json", [{"match": "", "reply": "g",
                                              "repeat": None}])
    factory = provider_factory(
        Settings(specialized_script=spec, general_script=gen)
    )
    s1, g1, emb = factory()
    assert isinstance(s1, ScriptedLlm)
    assert isinstance(emb, TokenOverlapEmbedder)
    assert s1.complete("q")[0] == "one use"
    with pytest.raises(NoScriptMatch):
        s1.complete("q")
    # a fresh factory call must not inherit the consumed entry
    s2, _, _ = factory()
    assert s2 is not s1
    assert s2.complete("q")[0] == "one use"


def test_factory_requires_roles(tmp_path):
    gen = script_file(tmp_path, "gen.json", [])
    with pytest.raises(ConfigError, match="no specialized provider"):
        provider_factory(Settings(general_script=gen))
    spec = script_file(tmp_path, "spec.json", [])
    with pytest.raises(ConfigError, match="no general provider"):
        provider_factory(Settings(specialized_script=spec))
    # the repair-only ablation neither builds nor requires the specialized role
    factory = provider_factory(Settings(general_script=gen), stage2_only=True)
    specialized, general, _ = factory()
    assert specialized is None
    assert isinstance(general, ScriptedLlm)


def test_factory_http_provider(tmp_path, monkeypatch):
    monkeypatch.setenv("MY_KEY", "secret")
    gen = script_file(tmp_path, "gen.json", [])
    factory = provider_factory(Settings(
        specialized_url="http://api.test", specialized_model="m",
        specialized_key_env="MY_KEY", general_script=gen,
    ))
    s1, _, _ = factory()
    s2, _, _ = factory()
    assert isinstance(s1, HttpLlm)
    assert s1 is s2  # HTTP clients are shared, they hold no replay state


def test_factory_http_requires_model(tmp_path):
    gen = script_file(tmp_path, "gen.json", [])
    with pytest.raises(ConfigError, match="specialized_model"):
        provider_factory(Settings(
            specialized_url="http://api.test", general_script=gen,
        ))


def test_factory_http_missing_key(tmp_path, monkeypatch):
    monkeypatch.delenv("KGRELAY_API_KEY", raising=False)
    gen = script_file(tmp_path, "gen.json", [])
    with pytest.raises(MissingKey):
        provider_factory(Settings(
            specialized_url="http://api.test", specialized_model="m",
            general_script=gen,
        ))


def test_factory_http_rejects_unusable_url(tmp_path, monkeypatch):
    # Checked when the providers are built, before any question is asked.
    monkeypatch.setenv("KGRELAY_API_KEY", "k")
    spec = script_file(tmp_path, "spec.json", [])
    with pytest.raises(ConfigError, match="general provider: URL must be http or https"):
        provider_factory(Settings(
            specialized_script=spec, general_url="localhost:9/v1", general_model="m",
        ))


def test_factory_bad_script_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="cannot load script"):
        provider_factory(Settings(specialized_script=str(bad)))
    notlist = tmp_path / "obj.json"
    notlist.write_text("{}", encoding="utf-8")
    with pytest.raises(ConfigError, match="must be a JSON list"):
        provider_factory(Settings(specialized_script=str(notlist)))
    # Bad entries fail at load, not on the first prompt they would meet.
    gen = script_file(tmp_path, "gen.json", [])
    for i, entries in enumerate([
        [{"match": "([unclosed", "regex": True, "reply": "x"}],
        [{"match": "x", "reply": "y", "bogus": 1}],
        ["just a string"],
        [{"match": 5, "reply": "y"}],
        [{"match": "x", "reply": "y", "repeat": "2"}],
    ]):
        spec = script_file(tmp_path, f"spec{i}.json", entries)
        with pytest.raises(ConfigError, match="bad entry in script"):
            provider_factory(Settings(specialized_script=spec, general_script=gen))
