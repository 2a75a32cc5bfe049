"""Reply tables for the benchmark's LLM providers.

A ``ReplyBook`` answers a prompt from the generator's ``replies.json``:
the stage-1 reasoning path, the repair blueprint, or a selection of
candidate paths. Prompts are recognised by matching the program's own
templates from ``kgrelay.prompts``, so a reworded template still works as
long as it keeps its placeholders. Both the loopback stub server and the
in-process fake answer through this class.

A selection reply names the candidate that extends the question's gold
chain and, while the beam is wider than one, the first other candidates in
prompt order. Levels the generator marked unparsable get a reply with no
path number, which sends the program to its fallback.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from kgrelay import prompts
from kgrelay.providers import LlmUsage

UNPARSABLE_REPLY = "None of these look right to me."
_PATH_LINE_RE = re.compile(r"^Path (\d+): (.*)$", re.MULTILINE)


def template_regex(template: str) -> re.Pattern:
    """A regex matching prompts built from template, one group per placeholder."""
    parts = re.split(r"(<[a-z_]+>)", template)
    out = []
    for part in parts:
        if re.fullmatch(r"<[a-z_]+>", part):
            out.append(f"(?P<{part[1:-1]}>.*?)")
        else:
            out.append(re.escape(part))
    return re.compile("".join(out), re.DOTALL)


_GENERATION_RE = template_regex(prompts.GENERATION_TEMPLATE)
_BLUEPRINT_RE = template_regex(prompts.BLUEPRINT_TEMPLATE)
_SELECTION_RE = template_regex(prompts.SELECTION_TEMPLATE)


class UnknownPrompt(KeyError):
    """The prompt matches no template or names no known question."""


def usage_for(prompt: str, reply: str) -> LlmUsage:
    """Token counts the benchmark providers report: whitespace tokens."""
    return LlmUsage(len(prompt.split()), len(reply.split()))


class ReplyBook:
    def __init__(self, table: dict[str, dict]):
        self.table = table

    @classmethod
    def load(cls, path: str | Path) -> "ReplyBook":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def _entry(self, question: str) -> dict:
        try:
            return self.table[question]
        except KeyError:
            raise UnknownPrompt(f"no reply for question {question[:60]!r}") from None

    def reply(self, prompt: str) -> str:
        m = _GENERATION_RE.fullmatch(prompt)
        if m:
            return self._entry(m["question"])["stage1"]
        m = _BLUEPRINT_RE.fullmatch(prompt)
        if m:
            blueprint = self._entry(m["question"])["blueprint"]
            if blueprint is None:
                raise UnknownPrompt(f"no blueprint for {m['question'][:60]!r}")
            return blueprint
        m = _SELECTION_RE.fullmatch(prompt)
        if m:
            return self._select(self._entry(m["question"]), m["start_entity_names"],
                                m["paths"], int(m["n"]))
        raise UnknownPrompt(f"prompt matches no template: {prompt[:60]!r}")

    @staticmethod
    def _select(entry: dict, start: str, paths: str, n: int) -> str:
        gold = entry["gold"] or []
        prefix = f"{start} -> "
        on_course, others = [], []
        level = 0
        for k, text in _PATH_LINE_RE.findall(paths):
            rels = text[len(prefix):].split(" -> ") if text.startswith(prefix) else []
            level = len(rels)
            (on_course if rels == gold[:len(rels)] else others).append(k)
        if level in entry["unparsable"]:
            return UNPARSABLE_REPLY
        picks = (on_course[:1] + others)[:n]
        return ", ".join(f"Path {k}" for k in picks)


class FakeLlm:
    """Zero-latency in-process provider; one dictionary lookup per call."""

    def __init__(self, book: ReplyBook):
        self.book = book

    def complete(self, prompt: str, temperature: float = 0.0) -> tuple[str, LlmUsage]:
        reply = self.book.reply(prompt)
        return reply, usage_for(prompt, reply)
