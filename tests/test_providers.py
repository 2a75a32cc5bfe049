"""Scripted and HTTP providers, overlap embedding, cost ledger."""

from __future__ import annotations

import contextlib
import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

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
from conftest import timed


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


def sorted_key_rank(query, names, k):
    """The ranking ``rank`` must equal: one score per pair, then a sort."""
    emb = TokenOverlapEmbedder()
    return sorted(names, key=lambda n: (-emb.similarity(query, n), n))[:k]


# Few letters and separators, so names often share a token, tie, or have
# no token at all.
RANK_TEXT = st.text(alphabet=st.sampled_from(list("abAB ._-")), max_size=7) | SCORER_TEXT


@settings(max_examples=500, deadline=None)
@given(
    queries=st.lists(RANK_TEXT, max_size=4),
    names=st.lists(RANK_TEXT, max_size=12),
    k=st.integers(0, 14),
)
@example(queries=["."], names=["b.a", "a", "-", " "], k=2)  # query has no token
@example(queries=["a"], names=["-", " ", ".", "c.d"], k=3)  # no name shares a token
@example(queries=["a b"], names=["b", "a.c", "a b", "b a"], k=2)  # every name shares
@example(queries=["a b"], names=["z.a", "y.b", "a", "b.x"], k=2)  # tied scores
@example(queries=["a"], names=["d", "a", "c.a", "b"], k=10)  # k >= len(names)
@example(queries=["film"], names=["z.film", "film.a", "y", "x"], k=3)  # unsorted input
@example(queries=["a", "b"], names=["a", "b", "a", "c", "b.a"], k=3)  # duplicate names
@example(queries=[], names=["a", "b"], k=2)  # no query
@example(queries=["a", "b c"], names=["-", "b", ". _", "a"], k=3)  # names with no token
def test_rank_is_the_sorted_key_slice(queries, names, k):
    expected = [sorted_key_rank(q, names, k) for q in queries]
    assert TokenOverlapEmbedder().rank(queries, names, k) == expected
    assert TokenOverlapEmbedder().rank(queries, tuple(names), k) == expected


@pytest.mark.parametrize(
    "query,best",
    [
        ("film director", ["film.n00000", "film.n00001"]),  # every name shares
        ("actor name", ["film.n00000", "film.n00001"]),  # no name shares
    ],
)
def test_rank_many_names_is_fast(query, best):
    names = [f"film.n{i:05d}" for i in reversed(range(50_000))]
    ranked, elapsed = timed(lambda: TokenOverlapEmbedder().rank([query], names, 2))
    assert ranked == [best] == [sorted_key_rank(query, names, 2)]
    assert elapsed < 2.0


def test_rank_splits_each_name_once_per_call():
    # More distinct names than the LRU holds, all sharing a token with the
    # query: each is split once, not again to be scored.
    names = [f"film.n{i:05d}" for i in range(3_000)]
    queries = ["film director", "film"]
    providers._tokens.cache_clear()
    TokenOverlapEmbedder().rank(queries, names, 2)
    assert providers._tokens.cache_info().misses == len(names) + len(queries)


def test_tokens_equal_the_reference_split():
    # Every code point the reference pattern or casefolding treats
    # specially, alone, doubled and between two letters.
    special = [
        c for c in map(chr, range(0x110000))
        if c.isspace() or _REFERENCE_SPLIT_RE.fullmatch(c) or c.casefold() != c
    ]
    for c in special:
        for text in (c, c + c, "a" + c + "b"):
            reference = {t for t in _REFERENCE_SPLIT_RE.split(text.casefold()) if t}
            assert providers._tokens(text) == reference, (hex(ord(c)), text)


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
    assert ledger.prompt_tokens() == 600
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


# --- HTTP provider against loopback servers ---

class StubHandler(BaseHTTPRequestHandler):
    """Answers each POST or GET with the server's next (status, headers,
    body) and records its path, headers and JSON body (None for a GET);
    the last reply repeats. A reply of None closes the connection
    unanswered, and a Content-Length among the headers replaces the true
    one."""

    def do_POST(self):
        length = self.headers["Content-Length"]
        payload = json.loads(self.rfile.read(int(length))) if length else None
        with self.server.lock:
            replies = self.server.replies
            reply = replies.pop(0) if len(replies) > 1 else replies[0]
            self.server.seen.append((self.path, self.headers, payload))
        if reply is None:
            return
        status, headers, body = reply
        data = body.encode("utf-8")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        if "Content-Length" not in headers:
            self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST

    def log_message(self, *args):
        pass


OK_BODY = json.dumps({
    "choices": [{"message": {"content": "ok"}}],
    "usage": {"prompt_tokens": 3, "completion_tokens": 1},
})

# A 200 body nested past the recursion limit: json.loads raises
# RecursionError, not ValueError.
NESTED_BODY = "[" * 100_000 + "]" * 100_000


@contextlib.contextmanager
def serving():
    """A StubHandler server on a loopback port, shut down on exit."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.replies = []
    server.seen = []
    server.lock = threading.Lock()
    server.url = f"http://127.0.0.1:{server.server_port}"
    # A short poll keeps shutdown() from waiting half a second per test.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def stub():
    with serving() as server:
        yield server


@pytest.fixture
def silent():
    """A listening socket that never accepts: the kernel completes each
    connection, and no reply ever comes. ``accepted()`` drains and counts
    the connections made so far."""
    listener = socket.create_server(("127.0.0.1", 0), backlog=16)
    listener.setblocking(False)

    def accepted():
        count = 0
        while True:
            try:
                conn, _ = listener.accept()
            except BlockingIOError:
                return count
            conn.close()
            count += 1

    with listener:
        yield SimpleNamespace(
            url=f"http://127.0.0.1:{listener.getsockname()[1]}", accepted=accepted
        )


def closed_port_url():
    """The URL of a port nothing listens on: connections are refused."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


@pytest.fixture
def sleeps(monkeypatch):
    monkeypatch.setenv("KGRELAY_API_KEY", "k-test")
    seen = []
    monkeypatch.setattr(providers.time, "sleep", seen.append)
    return seen


def stub_llm(stub, max_retries=3, backoff=0.01):
    return HttpLlm(
        f"{stub.url}/v1", "m", timeout=5.0, max_retries=max_retries, backoff=backoff,
    )


def test_http_missing_key(monkeypatch):
    monkeypatch.delenv("KGRELAY_API_KEY", raising=False)
    with pytest.raises(MissingKey):
        HttpLlm("http://x", "m")


def test_http_needs_one_attempt(sleeps):
    # Zero attempts would leave no failure to raise after the retry loop.
    with pytest.raises(ValueError, match="max_retries must be >= 1"):
        HttpLlm("http://x", "m", max_retries=0)


@pytest.mark.parametrize("url", [
    "localhost:9/v1", "file:///etc/passwd", "ftp://host/v1", "data:,x",
    "http:///v1", "http://host:port/v1", "http://host:99999/v1",
    "http://user:pw@host/v1", "http://host/v 1", "http://host/v\n1", "http://höst/v1",
    # The resolver encodes the host as IDNA first and raises a UnicodeError,
    # a ValueError, for an empty label or one longer than 63 characters.
    "http://a..b/v1", "http://" + "a" * 64 + ".example/v1",
])
def test_http_rejects_unusable_url(sleeps, url):
    with pytest.raises(ValueError, match="URL must be http or https with a host"):
        HttpLlm(url, "m")


def test_http_rejects_a_key_no_header_can_carry(monkeypatch):
    monkeypatch.setenv("KGRELAY_API_KEY", "k\nX-Injected: 1")
    with pytest.raises(ValueError, match="KGRELAY_API_KEY holds characters"):
        HttpLlm("http://x", "m")


def test_http_success_with_usage(stub, sleeps):
    stub.replies = [(200, {}, json.dumps({
        "choices": [{"message": {"content": "hi there"}}],
        "usage": {"prompt_tokens": 11, "completion_tokens": 7},
    }))]
    llm = HttpLlm(f"{stub.url}/v1/", "my-model", timeout=9.0)
    text, usage = llm.complete("ping", temperature=0.5)
    assert text == "hi there"
    assert usage == LlmUsage(11, 7)
    [(path, headers, payload)] = stub.seen
    assert path == "/v1/chat/completions"
    assert payload["model"] == "my-model"
    assert payload["temperature"] == 0.5
    assert headers["Authorization"] == "Bearer k-test"
    assert headers["Content-Type"] == "application/json"


@pytest.mark.parametrize("status", [301, 302, 303])
def test_http_redirect_does_not_carry_the_key(stub, sleeps, status):
    # urllib follows these as a GET; the key stays with the first host.
    with serving() as target:
        target.replies = [(200, {}, OK_BODY)]
        stub.replies = [(status, {"Location": f"{target.url}/v1/chat/completions"}, "")]
        assert stub_llm(stub).complete("p")[0] == "ok"
        [(_, first, _)] = stub.seen
        [(path, second, payload)] = target.seen
    assert first["Authorization"] == "Bearer k-test"
    assert path == "/v1/chat/completions"
    assert payload is None
    assert "Authorization" not in second


@pytest.mark.parametrize("status", [307, 308])
def test_http_method_keeping_redirect_is_not_followed(stub, sleeps, status):
    with serving() as target:
        stub.replies = [(status, {"Location": f"{target.url}/v1/chat/completions"}, "moved")]
        with pytest.raises(HttpError) as err:
            stub_llm(stub).complete("p")
        assert target.seen == []
    assert err.value.status == status
    assert len(stub.seen) == 1


def test_http_success_without_usage(stub, sleeps):
    stub.replies = [(200, {}, json.dumps({"choices": [{"message": {"content": "a b"}}]}))]
    _, usage = stub_llm(stub).complete("one two three")
    assert usage == LlmUsage(3, 2, provider_reported=False)


def test_http_retries_429_then_succeeds(stub, sleeps):
    stub.replies = [(429, {}, ""), (429, {}, ""), (200, {}, OK_BODY)]
    assert stub_llm(stub, max_retries=3).complete("p")[0] == "ok"
    assert len(stub.seen) == 3


def test_http_5xx_exhausts_retries(stub, sleeps):
    stub.replies = [(503, {}, "")]
    with pytest.raises(HttpError) as err:
        stub_llm(stub, max_retries=2).complete("p")
    assert err.value.status == 503


def test_http_timeout_exhausts_retries(silent, sleeps):
    llm = HttpLlm(silent.url, "m", timeout=0.2, max_retries=2)
    start = time.monotonic()
    with pytest.raises(ProviderTimeout):
        llm.complete("p")
    # Each attempt waits the timeout for a reply, and no longer.
    assert 0.4 <= time.monotonic() - start < 10
    assert silent.accepted() == 2


def test_http_connection_error_retries_then_raises(sleeps):
    llm = HttpLlm(closed_port_url(), "m", max_retries=3)
    with pytest.raises(ProviderUnreachable, match="Connection refused"):
        llm.complete("p")
    # One sleep before each attempt after the first.
    assert len(sleeps) == 2


def test_http_connection_error_then_success(stub, sleeps):
    stub.replies = [None, (200, {}, OK_BODY)]
    assert stub_llm(stub).complete("p")[0] == "ok"
    assert len(stub.seen) == 2


def test_http_body_cut_short_is_retried(stub, sleeps):
    stub.replies = [(200, {"Content-Length": "1000"}, OK_BODY), (200, {}, OK_BODY)]
    assert stub_llm(stub).complete("p")[0] == "ok"
    assert len(stub.seen) == 2


@pytest.mark.parametrize(
    "resp",
    [
        (200, {}, "<html>gateway</html>"),
        (200, {}, json.dumps({"error": "no choices"})),
        (200, {}, json.dumps({"choices": []})),
        (200, {}, json.dumps(["not", "an", "object"])),
        (200, {}, json.dumps({"choices": [{"message": {"content": None}}]})),
        (200, {}, json.dumps({"choices": [{"message": {"content": "x"}}],
                              "usage": {"prompt_tokens": "many", "completion_tokens": 1}})),
        (200, {}, NESTED_BODY),
    ],
)
def test_http_malformed_reply_is_provider_error(stub, sleeps, resp):
    stub.replies = [resp]
    with pytest.raises(MalformedReply) as err:
        stub_llm(stub, max_retries=3).complete("p")
    assert isinstance(err.value, ProviderError)
    assert len(stub.seen) == 1


def test_run_batch_survives_unreachable_provider(sleeps, presidents):
    url = closed_port_url()

    def factory():
        llm = HttpLlm(url, "m", max_retries=2)
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


def test_http_client_error_is_immediate(stub, sleeps):
    stub.replies = [(400, {}, "bad request body")]
    with pytest.raises(HttpError) as err:
        stub_llm(stub, max_retries=3).complete("p")
    assert err.value.status == 400
    assert str(err.value).endswith(": bad request body")
    assert len(stub.seen) == 1


def test_http_backoff_schedule(stub, sleeps):
    stub.replies = [(500, {}, "")]
    with pytest.raises(HttpError):
        stub_llm(stub, max_retries=3, backoff=0.5).complete("p")
    assert sleeps == [0.5, 1.0]


def test_http_retry_after_replaces_the_next_delay_only(stub, sleeps):
    # A 429's Retry-After sets the wait before the next attempt; a later
    # failure without one goes back to the schedule.
    stub.replies = [(429, {"Retry-After": "0"}, ""), (500, {}, ""), (503, {}, "")]
    with pytest.raises(HttpError):
        stub_llm(stub, max_retries=4, backoff=0.5).complete("p")
    assert sleeps == [0.0, 1.0, 2.0]


def test_stub_5xx_then_200_succeeds(stub, sleeps):
    stub.replies = [(503, {}, "busy"), (502, {}, "bad gateway"), (200, {}, OK_BODY)]
    assert stub_llm(stub).complete("p") == ("ok", LlmUsage(3, 1))
    assert len(stub.seen) == 3
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
    assert len(stub.seen) == 2
    assert sleeps == [expected]


def test_stub_malformed_200_raises(stub, sleeps):
    stub.replies = [(200, {}, "<html>gateway</html>"), (200, {}, OK_BODY)]
    with pytest.raises(MalformedReply):
        stub_llm(stub).complete("p")
    assert len(stub.seen) == 1
    assert sleeps == []


# Each wire failure, with the ProviderError it must surface as: a stub
# reply, or "refused" (nothing listens) or "stall" (no reply ever comes).
WIRE_FAILURES = {
    "cut_short": ((200, {"Content-Length": "1000"}, OK_BODY), ProviderUnreachable),
    "bad_encoding": ((200, {"Content-Encoding": "gzip"}, "not gzip"), MalformedReply),
    "no_reply": (None, ProviderUnreachable),
    "refused": ("refused", ProviderUnreachable),
    "stall": ("stall", ProviderTimeout),
    "not_json": ((200, {}, "<html>gateway</html>"), MalformedReply),
    "nested_json": ((200, {}, NESTED_BODY), MalformedReply),
    "client_error": ((400, {}, "bad request"), HttpError),
    "server_error": ((503, {}, "busy"), HttpError),
}

# Parses and grounds, but the path does not walk, so repair runs.
NON_WALKING = "TOPIC: USA\nPATH: country.leaders -> president.office_holder"


@pytest.mark.parametrize("stage", ["generation", "repair"])
@pytest.mark.parametrize("case", list(WIRE_FAILURES))
def test_run_batch_keeps_its_promise_over_the_wire(
    stub, silent, sleeps, presidents, case, stage,
):
    reply, expected = WIRE_FAILURES[case]
    if reply == "refused":
        url = closed_port_url()
    elif reply == "stall":
        url = silent.url
    else:
        stub.replies = [reply]
        url = stub.url
    llm = HttpLlm(f"{url}/v1", "m", timeout=0.2 if reply == "stall" else 5.0, max_retries=2)

    def factory():
        if stage == "generation":
            specialized = llm
        else:
            specialized = ScriptedLlm([ScriptEntry("", NON_WALKING, repeat=None)])
        return specialized, llm, TokenOverlapEmbedder()

    records = [
        DatasetRecord("a", "who leads the usa?", ("Obama",)),
        DatasetRecord("b", "which presidents?", ("Clinton",)),
    ]
    report, rows = run_batch(presidents, records, factory)
    assert [row["id"] for row in rows] == ["a", "b"]
    assert issubclass(expected, ProviderError)
    for row in rows:
        assert row["route"] == "repair_failed_fallback"
        assert row["error"].startswith(f"{stage}: {expected.__name__}: ")
    assert report.questions == 2
