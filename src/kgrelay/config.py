"""Configuration: flat key = value files, environment, CLI overrides.

Precedence, lowest to highest: built-in defaults, config file, KGRELAY_*
environment variables, explicit overrides. Unknown keys in a file are
rejected so typos fail loudly. Secrets never live in the file; HTTP
providers read their API key from the environment variable named by
*_key_env.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .providers import (
    DEFAULT_PRICES,
    ROLE_GENERAL,
    ROLE_SPECIALIZED,
    HttpLlm,
    ScriptedLlm,
    ScriptEntry,
    TokenOverlapEmbedder,
)
from .repair import RepairConfig

ENV_PREFIX = "KGRELAY_"


@dataclass
class Settings:
    kg: str | None = None
    specialized_script: str | None = None
    specialized_url: str | None = None
    specialized_model: str | None = None
    specialized_key_env: str = "KGRELAY_API_KEY"
    general_script: str | None = None
    general_url: str | None = None
    general_model: str | None = None
    general_key_env: str = "KGRELAY_API_KEY"
    beam_width: int = 3
    relation_filter: int = 4
    path_filter: int = 10
    max_depth_cap: int = 4
    relaxation: bool = True
    workers: int = 1
    price_specialized_input: float = DEFAULT_PRICES[ROLE_SPECIALIZED][0]
    price_specialized_output: float = DEFAULT_PRICES[ROLE_SPECIALIZED][1]
    price_general_input: float = DEFAULT_PRICES[ROLE_GENERAL][0]
    price_general_output: float = DEFAULT_PRICES[ROLE_GENERAL][1]

    def __post_init__(self):
        # Checked here, so a bad value exits 2 before any record runs.
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        for key, price in vars(self).items():
            if key.startswith("price_") and not (math.isfinite(price) and price >= 0):
                raise ConfigError(f"{key} must be a finite number >= 0, got {price}")


_FIELD_TYPES = {f.name: f.type for f in fields(Settings)}


def _coerce(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    text = raw.strip()
    if ftype == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}")
    if ftype == "float":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {text!r}")
    if ftype == "bool":
        low = text.casefold()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    return text


def _parse_file(path: str | Path) -> dict:
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    values = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def load_settings(path: str | Path | None = None, overrides: dict | None = None) -> Settings:
    values: dict = {}
    if path is not None:
        values.update(_parse_file(path))
    for key in _FIELD_TYPES:
        env_name = ENV_PREFIX + key.upper()
        if env_name in os.environ:
            values[key] = _coerce(key, os.environ[env_name])
    for key, value in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown setting {key!r}")
        values[key] = value
    return Settings(**values)


def repair_config(settings: Settings) -> RepairConfig:
    return RepairConfig(
        beam_width=settings.beam_width,
        relation_filter=settings.relation_filter,
        path_filter=settings.path_filter,
        max_depth_cap=settings.max_depth_cap,
    )


def price_table(settings: Settings) -> dict[str, tuple[float, float]]:
    return {
        ROLE_SPECIALIZED: (
            settings.price_specialized_input,
            settings.price_specialized_output,
        ),
        ROLE_GENERAL: (settings.price_general_input, settings.price_general_output),
    }


def _load_script(path: str) -> list[ScriptEntry]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            entries = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load script {path}: {exc}") from exc
    if not isinstance(entries, list):
        raise ConfigError(f"script {path} must be a JSON list")
    try:
        return [ScriptEntry.of(e) for e in entries]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad entry in script {path}: {exc}") from exc


def _role_provider(settings: Settings, role: str):
    """Checked script entries or a shared HTTP client for one role."""
    script, url, model, key_env = (
        getattr(settings, f"{role}_{key}") for key in ("script", "url", "model", "key_env")
    )
    if script:
        return _load_script(script)
    if not url:
        raise ConfigError(f"no {role} provider configured")
    if not model:
        raise ConfigError(f"{role}_model is required with {role}_url")
    try:
        return HttpLlm(url, model, key_env=key_env)
    except ValueError as exc:
        raise ConfigError(f"{role} provider: {exc}") from exc


def provider_factory(settings: Settings, stage2_only: bool = False):
    """Build a per-question provider factory from the settings.

    Script files are read and checked once, here; every call gets fresh
    use counters over the same entries, so replay state never leaks
    between questions. HTTP providers are shared. With ``stage2_only``
    the specialized role is neither built nor required, and its slot is
    None, so every question takes the repair-only route. Raises
    ConfigError when a built role has no provider configured or an HTTP
    role's URL or API key is unusable, and MissingKey when its key is unset.
    """
    roles = (
        None if stage2_only else _role_provider(settings, ROLE_SPECIALIZED),
        _role_provider(settings, ROLE_GENERAL),
    )

    def factory():
        specialized, general = (ScriptedLlm(p) if isinstance(p, list) else p for p in roles)
        return specialized, general, TokenOverlapEmbedder()

    return factory
