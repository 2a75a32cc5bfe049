"""LLM and embedding providers, plus per-call usage accounting.

Providers are tiny protocols so tests can substitute scripted fakes. A
question owns a plain list of its calls, in call order: ``TrackedLlm``
appends one ``CallRecord`` per call with its role ("specialized" for the
path generator, "general" for repair), and ``price_calls`` turns call
records into USD from a per-million-token price table.
"""

from __future__ import annotations

import functools
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from itertools import compress, filterfalse, islice
from operator import not_
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence
from urllib.parse import urlsplit

from .errors import (
    HttpError,
    MalformedReply,
    MissingKey,
    NoScriptMatch,
    ProviderError,
    ProviderTimeout,
    ProviderUnreachable,
)

if TYPE_CHECKING:
    import urllib.request


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
    """Scores text against text.

    ``rank(queries, names, k)`` returns, for each query, the k names most
    similar to it, best first, ties broken by the smaller name: exactly
    ``[sorted(names, key=lambda n: (-self.similarity(q, n), n))[:k]
    for q in queries]``.
    """

    def similarity(self, a: str, b: str) -> float:
        ...

    def rank(self, queries: Sequence[str], names: Sequence[str], k: int) -> list[list[str]]:
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

# Repair ranks a beam path's relation names against every blueprint step
# in one call, which splits each name once; the same names and steps come
# back at every level and in other questions, so the LRU carries them
# across calls. It lives at module level because callers build a fresh
# embedder per question; its bound keeps one-off strings (questions,
# linearized paths) from growing it for the life of the process.
@functools.lru_cache(maxsize=1024)
def _tokens(text: str) -> frozenset[str]:
    # Tokens are split on whitespace (str.isspace, which is also what a
    # regex's \s matches), ".", "_" and "-"; a run of them splits once.
    return frozenset(
        text.casefold().replace(".", " ").replace("_", " ").replace("-", " ").split()
    )


def _jaccard(ta: frozenset[str], tb: frozenset[str]) -> float:
    if not ta or not tb:
        return 0.0
    shared = len(ta & tb)
    return shared / (len(ta) + len(tb) - shared)


def token_overlap_similarity(a: str, b: str) -> float:
    """Jaccard overlap of casefolded tokens; 0 when either side is empty.

    Splits on whitespace and on the separators common in relation names,
    so "president.office_holder" shares tokens with "who holds the
    office". A deterministic stand-in for an embedding model.
    """
    return _jaccard(_tokens(a), _tokens(b))


class TokenOverlapEmbedder:
    def similarity(self, a: str, b: str) -> float:
        return token_overlap_similarity(a, b)

    def rank(self, queries: Sequence[str], names: Sequence[str], k: int) -> list[list[str]]:
        """Per query, the k names most similar to it, best first, ties by name.

        A name that shares no token with a query scores exactly 0, and
        most names share none with any query. So each query and name is
        split once, a C-level disjointness test against the union of the
        queries' tokens finds the few names that share a token with any
        query, only those are scored, from the sets already split, and
        every other place is filled from one sort of the names.
        """
        query_tokens = list(map(_tokens, queries))
        name_tokens = list(map(_tokens, names))
        near = list(compress(
            zip(names, name_tokens),
            map(not_, map(frozenset().union(*query_tokens).isdisjoint, name_tokens)),
        ))
        ordered = sorted(names)
        ranked = []
        for tq in query_tokens:
            scored = [(-s, n) for n, tn in near if (s := _jaccard(tq, tn))]
            top = [n for _, n in sorted(scored)[:k]]
            rest = filterfalse({n for _, n in scored}.__contains__, ordered)
            ranked.append(top + list(islice(rest, k - len(top))))
        return ranked


# --- HTTP provider ---

class HttpLlm:
    """OpenAI-style chat completion client with bounded retries.

    The transport is the standard library's ``urllib.request``: one
    connection per call (keep-alive stalls on servers that write headers
    and body separately), proxies from the environment, HTTPS verified
    against the system CA store. The URL and the API key are checked at
    construction, so a bad value fails before any network traffic: only
    http and https URLs with a host are accepted, because the opener would
    also read file:, ftp: and data: URLs. A 301, 302 or 303 is followed
    as a GET without the API key; a 307 or 308 is not followed and fails
    as an HttpError. Retries cover timeouts, failed or cut-short
    connections, 429, and 5xx responses with exponential backoff; a 429
    that names a Retry-After delay in seconds waits that long instead,
    never longer than the schedule's last delay. Every failure of
    ``complete`` raises a ProviderError subclass.
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
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        if not _is_http_url(base_url):
            raise ValueError(f"URL must be http or https with a host, got {base_url!r}")
        key = os.environ.get(key_env)
        if not key:
            raise MissingKey(key_env)
        if not (key.isascii() and key.isprintable()):
            # http.client refuses such a header value with a ValueError.
            raise ValueError(f"{key_env} holds characters an HTTP header cannot carry")
        self._key = key
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    def _post(self, request: urllib.request.Request):
        """One call on its own connection: (status, headers, body bytes)."""
        import urllib.request
        from urllib.error import HTTPError

        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.status, resp.headers, resp.read()
        except HTTPError as exc:
            with exc:
                return exc.code, exc.headers, exc.read()

    def complete(self, prompt: str, temperature: float = 0.0) -> tuple[str, LlmUsage]:
        # The HTTP stack pulls in ssl and email, so it loads at the first
        # call; programs that only build providers never pay for it.
        import http.client
        import urllib.request
        from urllib.error import URLError

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        # Unredirected: urllib copies ordinary headers onto a redirect's
        # request, which would send the key to whatever host it names.
        request.add_unredirected_header("Authorization", f"Bearer {self._key}")
        last_error: ProviderError | None = None
        delay = 0.0
        for attempt in range(self.max_retries):
            if attempt:
                time.sleep(delay)
            delay = self.backoff * (2 ** attempt)
            try:
                status, headers, raw = self._post(request)
            except (OSError, http.client.HTTPException) as exc:
                # URLError wraps the socket error; IncompleteRead and
                # RemoteDisconnected are HTTPExceptions.
                reason = exc.reason if isinstance(exc, URLError) else exc
                if isinstance(reason, TimeoutError):
                    last_error = ProviderTimeout(f"no response after {self.max_retries} attempts")
                else:
                    last_error = ProviderUnreachable(
                        f"no connection after {self.max_retries} attempts: {reason}"
                    )
                continue
            if status == 429 or status >= 500:
                last_error = HttpError(status, f"after {self.max_retries} attempts")
                after = headers.get("Retry-After", "").strip()
                if status == 429 and after.isascii() and after.isdigit():
                    # Delta-seconds (an HTTP date keeps the schedule), never
                    # longer than the schedule's last delay.
                    delay = min(float(after), self.backoff * 2 ** (self.max_retries - 2))
                continue
            if status != 200:
                raise HttpError(status, raw.decode("utf-8", "replace")[:200])
            try:
                body = json.loads(raw)
                text = body["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise MalformedReply("reply content is not text")
                usage = body.get("usage") or {}
                if "prompt_tokens" in usage and "completion_tokens" in usage:
                    counts = int(usage["prompt_tokens"]), int(usage["completion_tokens"])
                    # A negative count is no count: approximate, as without usage.
                    if min(counts) >= 0:
                        return text, LlmUsage(*counts)
            except (ValueError, LookupError, TypeError, AttributeError, RecursionError) as exc:
                # json.loads raises RecursionError on a body nested too deeply.
                raise MalformedReply(f"unreadable reply: {type(exc).__name__}: {exc}") from exc
            return text, LlmUsage(
                approx_tokens(prompt), approx_tokens(text), provider_reported=False
            )
        raise last_error


def _is_http_url(url: str) -> bool:
    """An http or https URL with a host and a valid port, without user info
    or any character that http.client refuses in a request line. The host
    must encode as IDNA, which the resolver does first: a label that is
    empty or longer than 63 characters raises a UnicodeError there."""
    parts = urlsplit(url)
    try:
        parts.port
        (parts.hostname or "").encode("idna")
    except ValueError:
        return False
    return (
        parts.scheme in ("http", "https")
        and bool(parts.hostname)
        and "@" not in parts.netloc
        and url.isascii()
        and url.isprintable()
        and " " not in url
    )


# --- cost accounting ---

@dataclass(frozen=True)
class CallRecord:
    role: str
    usage: LlmUsage


def price_calls(
    records: Iterable[CallRecord], prices: dict[str, tuple[float, float]]
) -> float:
    """USD for the calls, summed in the order given; prices per 1M tokens."""
    total = 0.0
    for r in records:
        price_in, price_out = prices[r.role]
        total += (
            r.usage.prompt_tokens * price_in
            + r.usage.completion_tokens * price_out
        ) / 1e6
    return total


class TrackedLlm:
    """Wraps a provider so every call is appended, under one role, to
    ``calls``, the list of calls the question owns. A reply that does not
    encode as UTF-8 (a lone surrogate, which a JSON escape can carry)
    raises MalformedReply once its call is recorded, so it never reaches
    a path, a trace or a result file."""

    def __init__(self, inner: LlmProvider, role: str, calls: list[CallRecord]):
        self.inner = inner
        self.role = role
        self.calls = calls

    def complete(self, prompt: str, temperature: float = 0.0) -> tuple[str, LlmUsage]:
        text, usage = self.inner.complete(prompt, temperature)
        self.calls.append(CallRecord(self.role, usage))
        if not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise MalformedReply(
                    f"reply does not encode as UTF-8 at character {exc.start}: {exc.reason}"
                ) from exc
        return text, usage
