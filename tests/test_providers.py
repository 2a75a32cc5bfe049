"""Scripted and HTTP providers, overlap embedding, cost ledger."""

from __future__ import annotations

import pytest

import kgrelay.providers as providers
from kgrelay.errors import (
    HttpError,
    MalformedReply,
    MissingKey,
    NoScriptMatch,
    ProviderError,
    ProviderTimeout,
    ProviderUnreachable,
)
from kgrelay.evaluation import DatasetRecord, run_batch
from kgrelay.providers import (
    DEFAULT_PRICES,
    ROLE_GENERAL,
    ROLE_SPECIALIZED,
    CostLedger,
    HttpLlm,
    LlmUsage,
    ScriptEntry,
    ScriptedLlm,
    TokenOverlapEmbedder,
    TrackedLlm,
    approx_tokens,
    price_calls,
    token_overlap_similarity,
)


# --- scripted provider ---

def test_scripted_first_match_wins_and_consumes():
    llm = ScriptedLlm([("hello", "first"), ("hello", "second")])
    assert llm.complete("say hello")[0] == "first"
    assert llm.complete("say hello")[0] == "second"
    with pytest.raises(NoScriptMatch):
        llm.complete("say hello")


def test_scripted_usage_is_approximate():
    llm = ScriptedLlm([("q", "two words")])
    _, usage = llm.complete("one two three q")
    assert usage == LlmUsage(4, 2, provider_reported=False)


def test_scripted_repeat_unlimited():
    llm = ScriptedLlm([ScriptEntry("q", "r", repeat=None)])
    for _ in range(5):
        assert llm.complete("q")[0] == "r"


def test_scripted_repeat_counted():
    llm = ScriptedLlm([ScriptEntry("q", "a", repeat=2), ScriptEntry("q", "b")])
    assert [llm.complete("q")[0] for _ in range(3)] == ["a", "a", "b"]


def test_scripted_regex_entry():
    llm = ScriptedLlm([ScriptEntry(r"who (was|is)", "match", regex=True)])
    assert llm.complete("who is it")[0] == "match"


def test_scripted_dict_entries():
    llm = ScriptedLlm([{"match": "x", "reply": "y", "repeat": None}])
    assert llm.complete("x")[0] == "y"
    assert llm.complete("ax b")[0] == "y"


def test_scripted_no_match_raises():
    llm = ScriptedLlm([("needle", "r")])
    with pytest.raises(NoScriptMatch):
        llm.complete("haystack")


# --- embedding fallback ---

@pytest.mark.parametrize(
    "a,b,expected",
    [
        ("the film director", "film.director", 2 / 3),
        ("president.office_holder", "who holds the office", 1 / 6),
        ("same same", "same", 1.0),
        ("ABC def", "abc DEF", 1.0),
        ("", "anything", 0.0),
        ("anything", "   ", 0.0),
        ("none shared", "zero overlap", 0.0),
    ],
)
def test_token_overlap(a, b, expected):
    assert token_overlap_similarity(a, b) == pytest.approx(expected)


def test_embedder_wraps_function():
    emb = TokenOverlapEmbedder()
    assert emb.similarity("a b", "b c") == pytest.approx(1 / 3)


def test_approx_tokens():
    assert approx_tokens("") == 0
    assert approx_tokens("one  two\nthree") == 3


# --- cost ledger ---

def test_ledger_totals_and_cost():
    ledger = CostLedger()
    ledger.record(ROLE_SPECIALIZED, LlmUsage(100, 10))
    ledger.record(ROLE_GENERAL, LlmUsage(200, 20))
    ledger.record(ROLE_GENERAL, LlmUsage(300, 30, provider_reported=False))
    assert ledger.calls() == 3
    assert ledger.calls(ROLE_GENERAL) == 2
    assert ledger.prompt_tokens() == 600
    assert ledger.prompt_tokens(ROLE_SPECIALIZED) == 100
    assert ledger.completion_tokens(ROLE_GENERAL) == 50
    assert not all(r.usage.provider_reported for r in ledger.records)
    # hand arithmetic under the default price table
    expected = (100 * 0.05 + 10 * 0.25) / 1e6 + (500 * 0.15 + 50 * 0.60) / 1e6
    assert price_calls(ledger.records, DEFAULT_PRICES) == pytest.approx(expected)


def test_ledger_custom_prices():
    ledger = CostLedger()
    ledger.record(ROLE_SPECIALIZED, LlmUsage(1_000_000, 500_000))
    assert price_calls(ledger.records, {"specialized": (1.0, 2.0)}) == pytest.approx(2.0)


def test_tracked_llm_records_role():
    ledger = CostLedger()
    inner = ScriptedLlm([ScriptEntry("q", "a b c", repeat=None)])
    llm = TrackedLlm(inner, ROLE_GENERAL, ledger)
    text, usage = llm.complete("the q prompt")
    assert text == "a b c"
    assert ledger.records == [
        providers.CallRecord(ROLE_GENERAL, LlmUsage(3, 3, provider_reported=False))
    ]
    assert usage.completion_tokens == 3


def test_default_price_table():
    assert DEFAULT_PRICES[ROLE_SPECIALIZED] == (0.05, 0.25)
    assert DEFAULT_PRICES[ROLE_GENERAL] == (0.15, 0.60)


# --- HTTP provider ---

class FakeResponse:
    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        return self._body


@pytest.fixture
def http_env(monkeypatch):
    monkeypatch.setenv("KGRELAY_API_KEY", "k-test")
    monkeypatch.setattr(providers.time, "sleep", lambda s: None)


def test_http_missing_key(monkeypatch):
    monkeypatch.delenv("KGRELAY_API_KEY", raising=False)
    with pytest.raises(MissingKey):
        HttpLlm("http://x", "m")


def test_http_needs_one_attempt(http_env):
    # Zero attempts would leave no failure to raise after the retry loop.
    with pytest.raises(ValueError, match="max_retries must be >= 1"):
        HttpLlm("http://x", "m", max_retries=0)


def test_http_success_with_usage(http_env, monkeypatch):
    seen = {}

    def post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, payload=json, headers=headers, timeout=timeout)
        return FakeResponse(200, {
            "choices": [{"message": {"content": "hi there"}}],
            "usage": {"prompt_tokens": 11, "completion_tokens": 7},
        })

    monkeypatch.setattr(providers.requests, "post", post)
    llm = HttpLlm("http://api.test/v1/", "my-model", timeout=9.0)
    text, usage = llm.complete("ping", temperature=0.5)
    assert text == "hi there"
    assert usage == LlmUsage(11, 7)
    assert seen["url"] == "http://api.test/v1/chat/completions"
    assert seen["payload"]["model"] == "my-model"
    assert seen["payload"]["temperature"] == 0.5
    assert seen["headers"]["Authorization"] == "Bearer k-test"
    assert seen["timeout"] == 9.0


def test_http_success_without_usage(http_env, monkeypatch):
    monkeypatch.setattr(
        providers.requests, "post",
        lambda *a, **k: FakeResponse(
            200, {"choices": [{"message": {"content": "a b"}}]}
        ),
    )
    llm = HttpLlm("http://x", "m")
    _, usage = llm.complete("one two three")
    assert usage == LlmUsage(3, 2, provider_reported=False)


def test_http_retries_429_then_succeeds(http_env, monkeypatch):
    calls = []

    def post(*a, **k):
        calls.append(1)
        if len(calls) < 3:
            return FakeResponse(429)
        return FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})

    monkeypatch.setattr(providers.requests, "post", post)
    llm = HttpLlm("http://x", "m", max_retries=3)
    assert llm.complete("p")[0] == "ok"
    assert len(calls) == 3


def test_http_5xx_exhausts_retries(http_env, monkeypatch):
    monkeypatch.setattr(
        providers.requests, "post", lambda *a, **k: FakeResponse(503)
    )
    llm = HttpLlm("http://x", "m", max_retries=2)
    with pytest.raises(HttpError) as err:
        llm.complete("p")
    assert err.value.status == 503


def test_http_timeout_exhausts_retries(http_env, monkeypatch):
    def post(*a, **k):
        raise providers.requests.Timeout("slow")

    monkeypatch.setattr(providers.requests, "post", post)
    llm = HttpLlm("http://x", "m", max_retries=2)
    with pytest.raises(ProviderTimeout):
        llm.complete("p")


def test_http_connection_error_retries_then_raises(http_env, monkeypatch):
    calls = []

    def post(*a, **k):
        calls.append(1)
        raise providers.requests.ConnectionError("connection refused")

    monkeypatch.setattr(providers.requests, "post", post)
    llm = HttpLlm("http://x", "m", max_retries=3)
    with pytest.raises(ProviderUnreachable, match="connection refused"):
        llm.complete("p")
    assert len(calls) == 3


def test_http_connection_error_then_success(http_env, monkeypatch):
    calls = []

    def post(*a, **k):
        calls.append(1)
        if len(calls) == 1:
            raise providers.requests.ConnectionError("reset")
        return FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})

    monkeypatch.setattr(providers.requests, "post", post)
    assert HttpLlm("http://x", "m").complete("p")[0] == "ok"
    assert len(calls) == 2


class NotJsonResponse(FakeResponse):
    def json(self):
        raise providers.requests.JSONDecodeError("Expecting value", self.text, 0)


@pytest.mark.parametrize(
    "resp",
    [
        NotJsonResponse(200, text="<html>gateway</html>"),
        FakeResponse(200, {"error": "no choices"}),
        FakeResponse(200, {"choices": []}),
        FakeResponse(200, ["not", "an", "object"]),
        FakeResponse(200, {"choices": [{"message": {"content": None}}]}),
        FakeResponse(200, {"choices": [{"message": {"content": "x"}}],
                           "usage": {"prompt_tokens": "many", "completion_tokens": 1}}),
    ],
)
def test_http_malformed_reply_is_provider_error(http_env, monkeypatch, resp):
    calls = []

    def post(*a, **k):
        calls.append(1)
        return resp

    monkeypatch.setattr(providers.requests, "post", post)
    with pytest.raises(MalformedReply) as err:
        HttpLlm("http://x", "m", max_retries=3).complete("p")
    assert isinstance(err.value, ProviderError)
    assert len(calls) == 1


def test_run_batch_survives_unreachable_provider(http_env, monkeypatch, presidents):
    def post(*a, **k):
        raise providers.requests.ConnectionError("connection refused")

    monkeypatch.setattr(providers.requests, "post", post)

    def factory():
        llm = HttpLlm("http://127.0.0.1:9", "m", max_retries=2)
        return llm, llm, TokenOverlapEmbedder()

    records = [
        DatasetRecord("a", "who?", ("Obama",)),
        DatasetRecord("b", "which?", ("Clinton",)),
    ]
    report, rows = run_batch(presidents, records, factory)
    # The batch completes; each failed question falls back, scores zero
    # and names its stage and error type.
    assert [row["id"] for row in rows] == ["a", "b"]
    for row in rows:
        assert row["route"] == "repair_failed_fallback"
        assert row["hits_at_1"] == 0
        assert row["error"].startswith("generation: ProviderUnreachable: ")
    assert report.routes == {"repair_failed_fallback": 2}


def test_http_client_error_is_immediate(http_env, monkeypatch):
    calls = []

    def post(*a, **k):
        calls.append(1)
        return FakeResponse(400, text="bad request body")

    monkeypatch.setattr(providers.requests, "post", post)
    llm = HttpLlm("http://x", "m", max_retries=3)
    with pytest.raises(HttpError) as err:
        llm.complete("p")
    assert err.value.status == 400
    assert len(calls) == 1


def test_http_backoff_schedule(monkeypatch):
    monkeypatch.setenv("KGRELAY_API_KEY", "k")
    sleeps = []
    monkeypatch.setattr(providers.time, "sleep", sleeps.append)
    monkeypatch.setattr(
        providers.requests, "post", lambda *a, **k: FakeResponse(500)
    )
    llm = HttpLlm("http://x", "m", max_retries=3, backoff=0.5)
    with pytest.raises(HttpError):
        llm.complete("p")
    assert sleeps == [0.5, 1.0]
