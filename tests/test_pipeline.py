"""Question routing: stage-1 acceptance, repair handoff, failure fallbacks."""

from __future__ import annotations

import pytest

from kgrelay.evaluation import DatasetRecord, run_batch
from kgrelay.execute import AnswerSet, TIER_DROP_STRING, TIER_FULL, TIER_SKELETON
from kgrelay.kg import KnowledgeGraph, load_tsv
from kgrelay.pipeline import (
    QuestionResult,
    Route,
    answer_question,
    run_stage1,
)
from kgrelay.prompts import blueprint_prompt, generation_prompt, selection_prompt
from kgrelay.providers import (
    ROLE_GENERAL,
    ROLE_SPECIALIZED,
    ScriptedLlm,
    TokenOverlapEmbedder,
)
from kgrelay.reasoning import parse_reasoning_path

EMB = TokenOverlapEmbedder()

WORKED_REPLY = """\
TOPIC: USA
PATH: country.presidents -> president.office_holder
CONSTRAINT: hop=2; rel=education.institution; entity=Harvard
CONSTRAINT: hop=2; rel=position.from; op=GE; value="2000"
"""

GENERAL_SCRIPT = [
    {"match": "reasoning steps", "reply": "#1 find terms\n#2 find holder",
     "repeat": None},
    {"match": "Select up to", "reply": "Path 1", "repeat": None},
]


def spec_llm(reply):
    return ScriptedLlm([{"match": "Instruction:", "reply": reply, "repeat": None}])


def general_llm():
    return ScriptedLlm(GENERAL_SCRIPT)


def role_calls(result, role):
    return sum(r.role == role for r in result.ledger.records)


# --- prompt plumbing ---

def test_generation_prompt_embeds_question():
    p = generation_prompt("who was sworn in after 2000?")
    assert "Instruction:" in p
    assert "{who was sworn in after 2000?}" in p


def test_blueprint_prompt_embeds_question():
    p = blueprint_prompt("my question")
    assert p.endswith("Q: my question\nA:")


def test_selection_prompt_embeds_parts():
    p = selection_prompt("q?", "USA", ["Path 1: USA -> r"], 2)
    assert "Q: 'q?'" in p
    assert "Paths from 'USA':" in p
    assert "Select up to 2 paths" in p


def test_selection_prompt_leaves_placeholders_in_the_question():
    p = selection_prompt("what is <n> and <paths>?", "S", ["Path 1: S -> r"], 3)
    assert "Q: 'what is <n> and <paths>?'" in p
    assert "Paths from 'S':\nPath 1: S -> r\n" in p
    assert "Select up to 3 paths" in p
    # a start name is filled in as written too
    assert "Paths from '<question>':" in selection_prompt("q", "<question>", [], 1)


def test_run_stage1_parses_reply():
    rp = run_stage1(spec_llm(WORKED_REPLY), "q")
    assert rp == parse_reasoning_path(WORKED_REPLY)
    assert rp.topic_entity is None


# --- stage 1 accepted ---

def test_stage1_only_route(presidents):
    result = answer_question(
        presidents, "who was president", spec_llm(WORKED_REPLY), general_llm(), EMB, walks={}
    )
    assert result.route == Route.STAGE1_ONLY
    assert result.answers == AnswerSet(frozenset({"Obama", "GWBush"}), TIER_FULL)
    assert result.error is None
    assert result.crp_initial == parse_reasoning_path(WORKED_REPLY)
    assert result.crp_final.topic_entity == "USA"
    assert role_calls(result, ROLE_SPECIALIZED) == 1
    assert role_calls(result, ROLE_GENERAL) == 0
    assert result.trace == []


def test_stage1_only_keeps_reachable_but_empty_answers(presidents):
    # skeleton reaches entities, yet the full constraints kill them all;
    # that is a relaxation problem, not a repair problem
    reply = (
        "TOPIC: USA\nPATH: country.presidents -> president.office_holder\n"
        'CONSTRAINT: hop=2; rel=education.institution; string="nowhere"\n'
    )
    result = answer_question(
        presidents, "q", spec_llm(reply), general_llm(), EMB, walks={}
    )
    assert result.route == Route.STAGE1_ONLY
    assert result.answers == AnswerSet(
        frozenset({"Obama", "GWBush", "Clinton"}), TIER_DROP_STRING
    )
    assert result.ledger.calls() == 1


def count_calls(monkeypatch, name):
    """Record the arguments of every call of one ``KnowledgeGraph`` method."""
    calls = []
    method = getattr(KnowledgeGraph, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(KnowledgeGraph, name, counted)
    return calls


# Every constraint sits on the last hop, and none holds, so all four tiers run.
LAST_HOP_REPLY = (
    "TOPIC: USA\nPATH: country.presidents -> president.office_holder\n"
    'CONSTRAINT: hop=2; rel=education.institution; string="nowhere"\n'
    'CONSTRAINT: hop=2; rel=position.from; op=GE; value="2100"\n'
    "CONSTRAINT: hop=2; rel=education.institution; entity=Yale\n"
)


def test_stage1_relaxation_starts_from_the_routing_walk(presidents, monkeypatch):
    images = count_calls(monkeypatch, "image")
    result = answer_question(
        presidents, "q", spec_llm(LAST_HOP_REPLY), general_llm(), EMB, walks={}
    )
    assert result.route == Route.STAGE1_ONLY
    assert result.answers == AnswerSet(
        frozenset({"Obama", "GWBush", "Clinton"}), TIER_SKELETON
    )
    # The routing check expands the second hop; every tier reuses it.
    assert [rel for _, rel in images].count("president.office_holder") == 1


def test_gold_scoring_starts_from_the_routing_walk(presidents, monkeypatch):
    images = count_calls(monkeypatch, "image")
    gold = (
        "SELECT DISTINCT ?x WHERE { :USA :country.presidents ?t . "
        "?t :president.office_holder ?x . ?x :education.institution :Harvard . }"
    )
    records = [DatasetRecord("a", "q", sparql=gold)]
    _, [row] = run_batch(
        presidents, records, lambda: (spec_llm(LAST_HOP_REPLY), general_llm(), EMB)
    )
    assert row["route"] == Route.STAGE1_ONLY.value
    assert row["answers"] == ["Clinton", "GWBush", "Obama"]
    assert row["f1"] == 0.8
    # Routing, relaxation and the gold query expand the second hop once.
    assert [rel for _, rel in images].count("president.office_holder") == 1


def test_stage1_routing_check_is_one_reach(presidents, monkeypatch):
    # kgbench times the routing check as the one kg.reach span of a question.
    reaches = count_calls(monkeypatch, "reach")
    result = answer_question(presidents, "q", spec_llm(WORKED_REPLY), general_llm(), EMB, walks={})
    assert result.route == Route.STAGE1_ONLY
    # The call also passes the question's walk memo; only the chain counts.
    assert [(start, rels) for start, rels, *_ in reaches] == [
        ("USA", ("country.presidents", "president.office_holder"))
    ]


def test_relax_disabled_returns_full_tier_only(presidents, monkeypatch):
    images = count_calls(monkeypatch, "image")
    reply = (
        "TOPIC: USA\nPATH: country.presidents -> president.office_holder\n"
        'CONSTRAINT: hop=2; rel=education.institution; string="nowhere"\n'
    )
    result = answer_question(
        presidents, "q", spec_llm(reply), general_llm(), EMB, relax=False, walks={}
    )
    assert result.answers == AnswerSet(frozenset(), TIER_FULL)
    # The full tier starts from the routing walk too.
    assert [rel for _, rel in images] == ["country.presidents", "president.office_holder"]


# --- stage 2 repair ---

def test_repaired_path_executes_from_the_repair_walks(presidents, monkeypatch):
    images = count_calls(monkeypatch, "image")
    reply = (
        "TOPIC: USA\nPATH: country.presidents -> made.up_relation\n"
        "CONSTRAINT: hop=2; rel=education.institution; entity=Harvard\n"
    )
    result = answer_question(
        presidents, "who was president", spec_llm(reply), general_llm(), EMB, walks={}
    )
    assert result.route == Route.STAGE1_PLUS_2
    assert result.answers == AnswerSet(frozenset({"Obama", "GWBush"}), TIER_FULL)
    # The routing check walks the first hop; repair's second level and
    # relaxation of the repaired path start from that walk.
    assert [rel for _, rel in images] == [
        "country.presidents", "made.up_relation", "president.office_holder"
    ]


def test_repair_route_restores_constraints(presidents):
    reply = (
        "TOPIC: USA\nPATH: country.presidents -> made.up_relation\n"
        "CONSTRAINT: hop=2; rel=education.institution; entity=Harvard\n"
    )
    result = answer_question(
        presidents, "who was president", spec_llm(reply), general_llm(), EMB, walks={}
    )
    assert result.route == Route.STAGE1_PLUS_2
    assert result.crp_final.path == (
        "country.presidents", "president.office_holder"
    )
    assert [c.relation for c in result.crp_final.constraints] == [
        "education.institution"
    ]
    assert result.answers == AnswerSet(frozenset({"Obama", "GWBush"}), TIER_FULL)
    assert role_calls(result, ROLE_SPECIALIZED) == 1
    assert role_calls(result, ROLE_GENERAL) == 3  # blueprint + 2 selections
    assert [ev["event"] for ev in result.trace] == ["blueprint", "depth", "depth"]


def test_repair_drops_out_of_range_constraints(tmp_path):
    g = load_tsv_text(tmp_path, "S\thop.fwd\tA\nA\thop.back\tS\n")
    reply = (
        "TOPIC: S\nPATH: r1 -> r2 -> r3 -> r4 -> r5\n"
        "CONSTRAINT: hop=5; rel=x; entity=A\n"
    )
    result = answer_question(g, "q", spec_llm(reply), general_llm(), EMB, walks={})
    assert result.route == Route.STAGE1_PLUS_2
    # depth 5 capped at 4, so the hop-5 constraint has nowhere to anchor
    assert result.crp_final.path == (
        "hop.fwd", "hop.back", "hop.fwd", "hop.back"
    )
    assert result.crp_final.constraints == ()
    assert {"event": "constraint_dropped", "hop": 5, "relation": "x"} in result.trace
    assert result.answers == AnswerSet(frozenset({"S"}), TIER_FULL)
    assert role_calls(result, ROLE_GENERAL) == 5


# --- failure fallbacks ---

def test_generation_parse_failure(presidents):
    result = answer_question(
        presidents, "q", spec_llm("I cannot answer that."), general_llm(), EMB, walks={}
    )
    assert result.route == Route.FALLBACK
    assert result.answers == AnswerSet(frozenset(), TIER_FULL)
    assert result.error.startswith("generation: ")
    assert result.crp_initial is None and result.crp_final is None
    assert result.trace[-1]["event"] == "error"
    assert result.trace[-1]["stage"] == "generation"


def test_grounding_failure(presidents):
    result = answer_question(
        presidents, "q", spec_llm("TOPIC: Narnia\nPATH: r\n"), general_llm(), EMB, walks={}
    )
    assert result.route == Route.FALLBACK
    assert result.error.startswith("grounding: UnknownEntity")
    assert result.crp_initial is not None
    assert result.crp_final is None


def test_repair_failure(presidents):
    # Harvard is a leaf, so the beam dead-ends immediately
    result = answer_question(
        presidents, "q", spec_llm("TOPIC: Harvard\nPATH: made.up\n"),
        general_llm(), EMB, walks={},
    )
    assert result.route == Route.FALLBACK
    assert result.error.startswith("repair: RepairFailed: repair failed at depth 1")
    assert result.crp_final is not None
    assert role_calls(result, ROLE_GENERAL) == 1  # blueprint only
    assert result.trace[-1]["stage"] == "repair"


def test_failures_never_raise(presidents):
    # a provider with no matching script entry surfaces as a result error
    broken = ScriptedLlm([])
    result = answer_question(presidents, "q", broken, general_llm(), EMB, walks={})
    assert result.route == Route.FALLBACK
    assert "NoScriptMatch" in result.error


# --- stage-2-only ablation ---

def load_tsv_text(tmp_path, text):
    p = tmp_path / "g.tsv"
    p.write_text(text, encoding="utf-8")
    return load_tsv(p)


def test_stage2_only_depth2(presidents):
    result = answer_question(
        presidents, "who was president", None, general_llm(), EMB, walks={}, topic="usa", depth=2
    )
    assert result.route == Route.STAGE2_ONLY
    assert result.answers == AnswerSet(
        frozenset({"Obama", "GWBush", "Clinton"}), TIER_FULL
    )
    assert result.crp_final.path == (
        "country.presidents", "president.office_holder"
    )
    assert result.crp_final.constraints == ()
    assert result.crp_initial is None
    assert role_calls(result, ROLE_GENERAL) == 3


def test_stage2_only_answers_from_the_repair_walks(presidents, monkeypatch):
    images = count_calls(monkeypatch, "image")
    gold = (
        "SELECT DISTINCT ?x WHERE { :USA :country.presidents ?t . "
        "?t :president.office_holder ?x . }"
    )
    records = [DatasetRecord("a", "who was president", sparql=gold, topic="USA", depth=2)]
    _, [row] = run_batch(presidents, records, lambda: (None, general_llm(), EMB))
    assert row["route"] == Route.STAGE2_ONLY.value
    assert row["answers"] == ["Clinton", "GWBush", "Obama"] and row["f1"] == 1.0
    # Repair walks the first hop at level 2; the answers and the gold query
    # start from it and expand the second hop once.
    assert [rel for _, rel in images] == ["country.presidents", "president.office_holder"]


def test_stage2_only_depth1(presidents):
    result = answer_question(
        presidents, "q", None, general_llm(), EMB, walks={}, topic="USA", depth=1
    )
    assert result.answers == AnswerSet(frozenset({"T1", "T2", "T3"}), TIER_FULL)
    assert result.ledger.calls() == 2


def test_stage2_only_unknown_topic(presidents):
    result = answer_question(
        presidents, "q", None, general_llm(), EMB, walks={}, topic="Narnia", depth=2
    )
    assert result.route == Route.FALLBACK
    assert result.error.startswith("repair: UnknownEntity")
    assert result.ledger.calls() == 0


def test_stage2_only_bad_depth(presidents):
    result = answer_question(
        presidents, "q", None, general_llm(), EMB, walks={}, topic="USA", depth=0
    )
    assert result.route == Route.FALLBACK
    assert "RepairError" in result.error


def test_specialized_route_ignores_topic_and_depth(presidents):
    # With a specialized model the path's own topic and depth are used,
    # on the repair route too.
    reply = (
        "TOPIC: USA\nPATH: country.presidents -> made.up_relation\n"
        "CONSTRAINT: hop=2; rel=education.institution; entity=Harvard\n"
    )

    def answer(**given):
        return answer_question(
            presidents, "who was president", spec_llm(reply), general_llm(), EMB, walks={},
            **given,
        )

    plain, given = answer(), answer(topic="Narnia", depth=9)
    assert given.route == plain.route == Route.STAGE1_PLUS_2
    assert (given.answers, given.crp_initial, given.crp_final, given.trace) == (
        plain.answers, plain.crp_initial, plain.crp_final, plain.trace
    )
    assert given.ledger.records == plain.ledger.records
