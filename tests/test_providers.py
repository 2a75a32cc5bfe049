"""Scripted and HTTP providers, overlap embedding, cost ledger."""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


_REFERENCE_SPLIT_RE = re.compile(r"[\s._\-]+")


def uncached_overlap(a, b):
    """The scorer as written before its token cache, splitting every call."""
    ta = {t for t in _REFERENCE_SPLIT_RE.split(a.casefold()) if t}
    tb = {t for t in _REFERENCE_SPLIT_RE.split(b.casefold()) if t}
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


SCORER_TEXT = st.text(
    alphabet=st.sampled_from(list("aAsSßẞİiı ._-\t\u00a0\u2028")), max_size=12
) | st.text(max_size=12)


@settings(max_examples=300, deadline=None)
@given(a=SCORER_TEXT, b=SCORER_TEXT)
@example(a="ß", b="SS")
@example(a="Straße.name", b="STRASSE name")
@example(a="._- \t", b="anything")
@example(a="", b="")
def test_cached_overlap_matches_uncached_split(a, b):
    expected = uncached_overlap(a, b)
    # The second call answers from the cache.
    assert token_overlap_similarity(a, b) == expected
    assert token_overlap_similarity(a, b) == expected
    assert TokenOverlapEmbedder().similarity(b, a) == uncached_overlap(b, a)


def test_token_cache_is_bounded():
    maxsize = providers._tokens.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    for i in range(maxsize + 100):
        token_overlap_similarity(f"bound probe {i}", "probe")
        assert providers._tokens.cache_info().currsize <= maxsize
    assert providers._tokens.cache_info().currsize == maxsize


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
    def __init__(self, status_code, body=None, text="", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text
        self.headers = headers or {}

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


def test_http_retry_after_replaces_the_next_delay_only(monkeypatch):
    # A 429's Retry-After sets the wait before the next attempt; a later
    # failure without one goes back to the schedule.
    monkeypatch.setenv("KGRELAY_API_KEY", "k")
    sleeps = []
    monkeypatch.setattr(providers.time, "sleep", sleeps.append)
    replies = iter([FakeResponse(429, headers={"Retry-After": "0"}), FakeResponse(500)])

    def post(*a, **k):
        return next(replies, FakeResponse(503))

    monkeypatch.setattr(providers.requests, "post", post)
    llm = HttpLlm("http://x", "m", max_retries=4, backoff=0.5)
    with pytest.raises(HttpError):
        llm.complete("p")
    assert sleeps == [0.0, 1.0, 2.0]


# --- HTTP provider against a loopback server ---

class StubHandler(BaseHTTPRequestHandler):
    """Answers each POST with the server's next (status, headers, body)."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            status, headers, body = self.server.replies.pop(0)
            self.server.posts += 1
        data = body.encode("utf-8")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


OK_BODY = json.dumps({
    "choices": [{"message": {"content": "ok"}}],
    "usage": {"prompt_tokens": 3, "completion_tokens": 1},
})


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.replies = []
    server.posts = 0
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def sleeps(monkeypatch):
    monkeypatch.setenv("KGRELAY_API_KEY", "k-test")
    seen = []
    monkeypatch.setattr(providers.time, "sleep", seen.append)
    return seen


def stub_llm(stub, max_retries=3):
    return HttpLlm(
        f"http://127.0.0.1:{stub.server_port}/v1", "m",
        timeout=5.0, max_retries=max_retries, backoff=0.01,
    )


def test_stub_5xx_then_200_succeeds(stub, sleeps):
    stub.replies = [(503, {}, "busy"), (502, {}, "bad gateway"), (200, {}, OK_BODY)]
    assert stub_llm(stub).complete("p") == ("ok", LlmUsage(3, 1))
    assert stub.posts == 3
    assert sleeps == [0.01, 0.02]


@pytest.mark.parametrize(
    "retry_after,expected",
    [
        ("0", 0.0),                               # honoured: shorter than 0.01
        ("3600", 0.04),                           # capped at the last delay
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.01),  # a date: the schedule
    ],
)
def test_stub_429_retry_after_is_honoured_and_capped(stub, sleeps, retry_after, expected):
    stub.replies = [(429, {"Retry-After": retry_after}, "slow down"), (200, {}, OK_BODY)]
    assert stub_llm(stub, max_retries=4).complete("p")[0] == "ok"
    assert stub.posts == 2
    assert sleeps == [expected]


def test_stub_malformed_200_raises(stub, sleeps):
    stub.replies = [(200, {}, "<html>gateway</html>"), (200, {}, OK_BODY)]
    with pytest.raises(MalformedReply):
        stub_llm(stub).complete("p")
    assert stub.posts == 1
    assert sleeps == []
