"""LLM and embedding providers, plus per-call cost accounting.

Providers are tiny protocols so tests can substitute scripted fakes. The
cost ledger records every call with its role ("specialized" for the path
generator, "general" for repair) and prices token totals per million.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol

import requests

from .errors import (
    HttpError,
    MalformedReply,
    MissingKey,
    NoScriptMatch,
    ProviderError,
    ProviderTimeout,
    ProviderUnreachable,
)

log = logging.getLogger(__name__)

ROLE_SPECIALIZED = "specialized"
ROLE_GENERAL = "general"

# Prices in USD per 1M tokens: (input, output).
DEFAULT_PRICES: dict[str, tuple[float, float]] = {
    ROLE_SPECIALIZED: (0.05, 0.25),
    ROLE_GENERAL: (0.15, 0.60),
}


@dataclass(frozen=True)
class LlmUsage:
    prompt_tokens: int
    completion_tokens: int
    # False when the counts are whitespace-token approximations rather
    # than numbers reported by the provider.
    provider_reported: bool = True


def approx_tokens(text: str) -> int:
    """Whitespace token count, the fallback when no provider numbers exist."""
    return len(text.split())


class LlmProvider(Protocol):
    def complete(self, prompt: str, temperature: float = 0.0) -> tuple[str, LlmUsage]:
        ...


class EmbeddingProvider(Protocol):
    def similarity(self, a: str, b: str) -> float:
        ...


# --- scripted provider ---

@dataclass
class ScriptEntry:
    match: str
    reply: str
    repeat: int | None = 1  # None = unlimited
    regex: bool = False

    def __post_init__(self):
        # Checked when built, so a bad script fails at load, not mid-batch.
        if not (isinstance(self.match, str) and isinstance(self.reply, str)):
            raise TypeError("match and reply must be strings")
        if self.repeat is not None and (type(self.repeat) is not int or self.repeat < 0):
            raise TypeError("repeat must be a non-negative integer or null")
        try:
            self._pattern = re.compile(self.match) if self.regex else None
        except re.error as exc:
            raise ValueError(f"bad regex {self.match!r}: {exc}") from exc

    @classmethod
    def of(cls, entry: ScriptEntry | dict | tuple | list) -> ScriptEntry:
        """An entry given as itself, a keyword dict or a (match, reply) pair."""
        if isinstance(entry, ScriptEntry):
            return entry
        if isinstance(entry, dict):
            return cls(**entry)
        if isinstance(entry, (tuple, list)) and len(entry) == 2:
            return cls(*entry)
        raise TypeError(f"expected an object or a [match, reply] pair, got {entry!r}")

    def matches(self, prompt: str) -> bool:
        if self._pattern is not None:
            return self._pattern.search(prompt) is not None
        return self.match in prompt


class ScriptedLlm:
    """Replays canned replies; entries match prompts by substring.

    The first entry that matches and still has uses left fires. Entries
    default to one use so a script reads as an expected call sequence;
    repeat=None makes an entry reusable. Token usage is approximated and
    flagged as such.
    """

    def __init__(self, entries: Iterable[ScriptEntry | dict | tuple]):
        self.entries = [ScriptEntry.of(e) for e in entries]
        self._remaining = [e.repeat for e in self.entries]
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedLlm":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def complete(self, prompt: str, temperature: float = 0.0) -> tuple[str, LlmUsage]:
        with self._lock:
            for i, entry in enumerate(self.entries):
                if self._remaining[i] == 0:
                    continue
                if entry.matches(prompt):
                    if self._remaining[i] is not None:
                        self._remaining[i] -= 1
                    usage = LlmUsage(
                        approx_tokens(prompt), approx_tokens(entry.reply),
                        provider_reported=False,
                    )
                    return entry.reply, usage
        raise NoScriptMatch(prompt)


# --- embedding fallback ---

_TOKEN_SPLIT_RE = re.compile(r"[\s._\-]+")


def token_overlap_similarity(a: str, b: str) -> float:
    """Jaccard overlap of casefolded tokens; 0 when either side is empty.

    Splits on whitespace and on the separators common in relation names,
    so "president.office_holder" shares tokens with "who holds the
    office". A deterministic stand-in for an embedding model.
    """
    ta = {t for t in _TOKEN_SPLIT_RE.split(a.casefold()) if t}
    tb = {t for t in _TOKEN_SPLIT_RE.split(b.casefold()) if t}
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


class TokenOverlapEmbedder:
    def similarity(self, a: str, b: str) -> float:
        return token_overlap_similarity(a, b)


# --- HTTP provider ---

class HttpLlm:
    """OpenAI-style chat completion client with bounded retries.

    The API key is read from the environment at construction; a missing
    variable fails before any network traffic. Retries cover timeouts,
    failed connections, 429, and 5xx responses with exponential backoff.
    Every failure raises a ProviderError subclass.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        key_env: str = "KGRELAY_API_KEY",
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 1.0,
    ):
        key = os.environ.get(key_env)
        if not key:
            raise MissingKey(key_env)
        self._key = key
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    def complete(self, prompt: str, temperature: float = 0.0) -> tuple[str, LlmUsage]:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        headers = {"Authorization": f"Bearer {self._key}"}
        last_error: ProviderError | None = None
        for attempt in range(self.max_retries):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                resp = requests.post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers=headers,
                    timeout=self.timeout,
                )
            except requests.Timeout:
                last_error = ProviderTimeout(f"no response after {self.max_retries} attempts")
                continue
            except requests.ConnectionError as exc:
                last_error = ProviderUnreachable(
                    f"no connection after {self.max_retries} attempts: {exc}"
                )
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = HttpError(resp.status_code, f"after {self.max_retries} attempts")
                continue
            if resp.status_code != 200:
                raise HttpError(resp.status_code, resp.text[:200])
            try:
                body = resp.json()
                text = body["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise MalformedReply("reply content is not text")
                usage = body.get("usage") or {}
                if "prompt_tokens" in usage and "completion_tokens" in usage:
                    return text, LlmUsage(
                        int(usage["prompt_tokens"]), int(usage["completion_tokens"])
                    )
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                raise MalformedReply(f"unreadable reply: {type(exc).__name__}: {exc}") from exc
            return text, LlmUsage(
                approx_tokens(prompt), approx_tokens(text), provider_reported=False
            )
        raise last_error


# --- cost accounting ---

@dataclass(frozen=True)
class CallRecord:
    role: str
    usage: LlmUsage


class CostLedger:
    """Thread-safe per-call usage log with price-table costing."""

    def __init__(self, prices: dict[str, tuple[float, float]] | None = None):
        self.prices = dict(DEFAULT_PRICES if prices is None else prices)
        self.records: list[CallRecord] = []
        self._lock = threading.Lock()

    def record(self, role: str, usage: LlmUsage) -> None:
        with self._lock:
            self.records.append(CallRecord(role, usage))

    def merge(self, other: "CostLedger") -> None:
        with self._lock:
            self.records.extend(other.records)

    def calls(self, role: str | None = None) -> int:
        return sum(1 for r in self.records if role is None or r.role == role)

    def prompt_tokens(self, role: str | None = None) -> int:
        return sum(
            r.usage.prompt_tokens for r in self.records if role is None or r.role == role
        )

    def completion_tokens(self, role: str | None = None) -> int:
        return sum(
            r.usage.completion_tokens
            for r in self.records
            if role is None or r.role == role
        )

    def fully_reported(self) -> bool:
        return all(r.usage.provider_reported for r in self.records)

    def cost_usd(self) -> float:
        total = 0.0
        for r in self.records:
            price_in, price_out = self.prices[r.role]
            total += (
                r.usage.prompt_tokens * price_in
                + r.usage.completion_tokens * price_out
            ) / 1e6
        return total


class TrackedLlm:
    """Wraps a provider so every call lands in a ledger under one role."""

    def __init__(self, inner: LlmProvider, role: str, ledger: CostLedger):
        self.inner = inner
        self.role = role
        self.ledger = ledger

    def complete(self, prompt: str, temperature: float = 0.0) -> tuple[str, LlmUsage]:
        text, usage = self.inner.complete(prompt, temperature)
        self.ledger.record(self.role, usage)
        return text, usage


def ledger_summary(ledger: CostLedger, question_count: int) -> dict:
    """Per-question averages and extrapolated cost per 10k questions."""
    n = max(question_count, 1)
    prompt = ledger.prompt_tokens()
    completion = ledger.completion_tokens()
    return {
        "questions": question_count,
        "llm_calls": ledger.calls(),
        "avg_llm_calls": ledger.calls() / n,
        "avg_prompt_tokens": prompt / n,
        "avg_completion_tokens": completion / n,
        "avg_tokens": (prompt + completion) / n,
        "cost_usd": ledger.cost_usd(),
        "cost_per_10k_usd": ledger.cost_usd() / n * 10_000,
        "provider_reported": ledger.fully_reported(),
    }
