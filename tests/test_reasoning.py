"""Reasoning-path grammar: parsing, serialization, grounding, typing."""

from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrelay.errors import HopOutOfRange, KgRelayError, ParseError, UnknownEntity
from kgrelay.kg import DATETIME, NUMERIC, KnowledgeGraph, Literal
from kgrelay.reasoning import (
    ComparisonOp,
    Constraint,
    EntityMatch,
    NumericCompare,
    ReasoningPath,
    StringMatch,
    canonicalize,
    classify_threshold,
    ground_reasoning_path,
    parse_reasoning_path,
    serialize_reasoning_path,
)
from conftest import WORKED_TEXT, timed
from oracle import random_ungrounded_path


def test_parse_worked_example():
    rp = parse_reasoning_path(WORKED_TEXT)
    assert rp.topic_surface == "USA"
    assert rp.path == ("country.presidents", "president.office_holder")
    assert rp.depth == 2
    assert rp.constraints == (
        Constraint(2, "education.institution", EntityMatch("Harvard")),
        Constraint(
            2,
            "position.from",
            NumericCompare(ComparisonOp.GE, Literal(DATETIME, "2000")),
        ),
    )
    assert rp.topic_entity is None


def test_parse_single_hop_no_constraints():
    rp = parse_reasoning_path("TOPIC: USA\nPATH: country.presidents")
    assert rp.path == ("country.presidents",)
    assert rp.constraints == ()


@pytest.mark.parametrize(
    "body,value",
    [
        ("entity=New York", EntityMatch("New York")),
        ('op=EQ; value="7"', NumericCompare(ComparisonOp.EQ, Literal(NUMERIC, "7"))),
        ('op=LT; value="1999-04"',
         NumericCompare(ComparisonOp.LT, Literal(DATETIME, "1999-04"))),
        ("op=ARGMAX", NumericCompare(ComparisonOp.ARGMAX)),
        ("op=ARGMIN", NumericCompare(ComparisonOp.ARGMIN)),
        ('string="Main St."', StringMatch("Main St.")),
        ('string="say \\"hi\\""', StringMatch('say "hi"')),
    ],
)
def test_parse_constraint_bodies(body, value):
    rp = parse_reasoning_path(
        f"TOPIC: A\nPATH: r\nCONSTRAINT: hop=1; rel=s.t; {body}"
    )
    assert rp.constraints == (Constraint(1, "s.t", value),)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 0),
        ("PATH: r", 1),                               # no TOPIC
        ("TOPIC: A", 1),                              # no PATH
        ("TOPIC: A\nTOPIC: B", 2),
        ("TOPIC: A\nPATH: r ->", 2),                  # empty relation
        ("TOPIC: A\nPATH: two words", 2),
        ("TOPIC: A\nPATH: r\nstray line", 3),
        ("TOPIC: A\nPATH: r\nCONSTRAINT: hop=1; rel=s; op=XX; value=\"1\"", 3),
        ("TOPIC: A\nPATH: r\nCONSTRAINT: hop=1; rel=s; op=EQ; value=7", 3),
        ("TOPIC: A\nPATH: r\nCONSTRAINT: hop=1; rel=s; op=EQ; value=\"x\"", 3),
        ("TOPIC: A\nPATH: r\nCONSTRAINT: hop=1; rel=s; entity=", 3),
        ("TOPIC: A\nPATH: r\nCONSTRAINT: rel=s; entity=B", 3),
        pytest.param(  # more digits than int() converts
            "TOPIC: A\nPATH: r\nCONSTRAINT: hop=" + "9" * 5000 + "; rel=s; entity=B", 3,
            id="hop-too-long",
        ),
    ],
)
def test_parse_errors(text, line):
    with pytest.raises(ParseError) as err:
        parse_reasoning_path(text)
    if line:
        assert err.value.line == line


LONG_GAP = " " * 200_000


def test_parse_long_lines_is_fast():
    # A run of inner spaces must not make line matching quadratic.
    text = (
        f"TOPIC: a{LONG_GAP}b\nPATH: r\n"
        f"CONSTRAINT: hop=1; rel=r; entity=x{LONG_GAP}y\n"
    )
    (rp, bad), elapsed = timed(lambda: (
        parse_reasoning_path(text),
        pytest.raises(ParseError, parse_reasoning_path, f"TOPIC: a\nPATH: r{LONG_GAP}s"),
    ))
    bad.match("bad relation chain")
    assert elapsed < 1.0
    assert rp.topic_surface == f"a{LONG_GAP}b"
    assert rp.constraints[0].value == EntityMatch(f"x{LONG_GAP}y")


def test_parse_hop_out_of_range():
    with pytest.raises(HopOutOfRange):
        parse_reasoning_path("TOPIC: A\nPATH: r\nCONSTRAINT: hop=2; rel=s; entity=B")
    with pytest.raises(HopOutOfRange):
        parse_reasoning_path("TOPIC: A\nPATH: r\nCONSTRAINT: hop=0; rel=s; entity=B")


def test_constructor_validates():
    with pytest.raises(ValueError):
        ReasoningPath("", ("r",))
    with pytest.raises(ValueError):
        ReasoningPath("A", ())
    with pytest.raises(HopOutOfRange):
        ReasoningPath("A", ("r",), (Constraint(3, "s", EntityMatch("B")),))
    with pytest.raises(ValueError):
        NumericCompare(ComparisonOp.ARGMAX, Literal(NUMERIC, "1"))
    with pytest.raises(ValueError):
        NumericCompare(ComparisonOp.GE)
    with pytest.raises(ValueError):
        NumericCompare(ComparisonOp.GE, Literal("string", "x"))


# --- threshold typing ---

@pytest.mark.parametrize(
    "text,kind",
    [
        ("2000", DATETIME),       # four digits read as a year
        ("1999-04", DATETIME),
        ("1999-04-30", DATETIME),
        ("200", NUMERIC),
        ("20000", NUMERIC),
        ("3.5", NUMERIC),
        ("-12", NUMERIC),
        ("1e3", NUMERIC),
        ("0", NUMERIC),
    ],
)
def test_classify_threshold(text, kind):
    assert classify_threshold(text) == Literal(kind, text)


@pytest.mark.parametrize("text", ["abc", "NaN", "Infinity", "-Inf", "1999-4", ""])
def test_classify_threshold_rejects(text):
    with pytest.raises(ParseError):
        classify_threshold(text)


# --- serialization ---

def test_serialize_worked_example_is_canonical():
    rp = parse_reasoning_path(WORKED_TEXT)
    assert serialize_reasoning_path(rp) == (
        "TOPIC: USA\n"
        "PATH: country.presidents -> president.office_holder\n"
        "CONSTRAINT: hop=2; rel=education.institution; entity=Harvard\n"
        'CONSTRAINT: hop=2; rel=position.from; op=GE; value="2000"'
    )


def test_serialize_sorts_constraints():
    shuffled = (
        "TOPIC: USA\n"
        "PATH: a -> b\n"
        'CONSTRAINT: hop=2; rel=z.z; string="s"\n'
        "CONSTRAINT: hop=1; rel=a.a; entity=X\n"
        "CONSTRAINT: hop=2; rel=a.a; op=ARGMAX"
    )
    out = serialize_reasoning_path(parse_reasoning_path(shuffled))
    assert out.splitlines()[2:] == [
        "CONSTRAINT: hop=1; rel=a.a; entity=X",
        "CONSTRAINT: hop=2; rel=a.a; op=ARGMAX",
        'CONSTRAINT: hop=2; rel=z.z; string="s"',
    ]


def test_canonicalize_retypes_thresholds():
    # A numeric literal whose text is date-shaped becomes a date.
    rp = ReasoningPath(
        "A", ("r",),
        (Constraint(1, "s", NumericCompare(ComparisonOp.EQ, Literal(NUMERIC, "2000"))),),
    )
    fixed = canonicalize(rp)
    assert fixed.constraints[0].value.threshold == Literal(DATETIME, "2000")
    assert canonicalize(fixed) == fixed  # idempotent


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_parse_serialize_roundtrip(seed):
    from dataclasses import replace

    rng = random.Random(seed)
    rp = random_ungrounded_path(rng)
    text = serialize_reasoning_path(rp)
    again = parse_reasoning_path(text)
    # the text form carries no grounding, on topic or constraint entities
    stripped = tuple(
        replace(c, value=replace(c.value, entity=None))
        if isinstance(c.value, EntityMatch)
        else c
        for c in rp.constraints
    )
    assert again == canonicalize(ReasoningPath(rp.topic_surface, rp.path, stripped))
    assert serialize_reasoning_path(again) == text


_FUZZ_PIECES = [
    "TOPIC: ", "PATH: ", "CONSTRAINT: ", "hop=", "hop=0", "hop=3", "9" * 30, "rel=", "; ",
    ";", " -> ", "->", "entity=", "string=", "op=", "op=GE", "op=ARGMAX", "op=XX", "value=",
    '"2000"', '"2001-05"', '"1e2"', '"nan"', '"x"', '"', "\\", "\n", " ", "=",
]
# Whole lines that a mutation may add.
_FUZZ_LINES = [
    'CONSTRAINT: hop=1; rel=r.s; op=LT; value="nan"',
    'CONSTRAINT: hop=1; rel=r.s; op=EQ; value="2003-07-22"',
    'CONSTRAINT: hop=1; rel=r.s; string="a \\"b\\""',
    "CONSTRAINT: hop=2; rel=r.s; entity=E1",
]


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(5)
        lines = text.split("\n")
        if op == 0:  # delete a few characters
            text = text[:i] + text[i + rng.randint(1, 10):]
        elif op == 1:  # insert a piece of the grammar
            text = text[:i] + rng.choice(_FUZZ_PIECES) + text[i:]
        elif op == 2:  # swap two words
            words = text.split(" ")
            a, b = rng.randrange(len(words)), rng.randrange(len(words))
            words[a], words[b] = words[b], words[a]
            text = " ".join(words)
        elif op == 3:  # copy a line, or add a new one
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines + _FUZZ_LINES))
            text = "\n".join(lines)
        elif names := re.findall(r"[A-Za-z_][A-Za-z0-9_.]*", text):
            # rename a relation, entity or keyword to another the text uses
            text = text.replace(rng.choice(names), rng.choice(names), 1)
    return text


def test_parse_fuzz_raises_only_typed_errors(data_dir):
    # Every mutated stage-1 reply parses or raises a KgRelayError, and
    # every path that parses reads back from its text as its canonical form.
    rng = random.Random(29)
    script = json.loads((data_dir / "scripts" / "specialized.json").read_text(encoding="utf-8"))
    replies = [entry["reply"] for entry in script]
    replies += [serialize_reasoning_path(random_ungrounded_path(rng)) for _ in range(40)]
    parsed = 0
    for _ in range(5000):
        text = _mutate(rng, rng.choice(replies))
        try:
            rp = parse_reasoning_path(text)
        except KgRelayError:
            continue
        parsed += 1
        assert parse_reasoning_path(serialize_reasoning_path(rp)) == canonicalize(rp), text
    assert parsed >= 500


# --- grounding ---

def test_ground_worked_example(presidents):
    rp = ground_reasoning_path(presidents, parse_reasoning_path(WORKED_TEXT))
    assert rp.topic_entity == "USA"
    assert rp.constraints[0].value.entity == "Harvard"


def test_ground_topic_strict(presidents):
    rp = parse_reasoning_path("TOPIC: Atlantis\nPATH: r")
    with pytest.raises(UnknownEntity):
        ground_reasoning_path(presidents, rp)


def test_ground_constraint_lenient(presidents):
    rp = parse_reasoning_path(
        "TOPIC: usa\nPATH: country.presidents\n"
        "CONSTRAINT: hop=1; rel=x.y; entity=Atlantis"
    )
    grounded = ground_reasoning_path(presidents, rp)
    assert grounded.topic_entity == "USA"
    assert grounded.constraints[0].value.entity is None
    assert grounded.constraints[0].value.surface == "Atlantis"


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_grounding_does_not_change_the_text(seed):
    # The text form carries surfaces only; grounding fills ids beside them,
    # so a stage-1 row serializes its path once for both path fields.
    from dataclasses import replace

    rng = random.Random(seed)
    rp = random_ungrounded_path(rng)
    ids = {rp.topic_surface} | {
        c.value.surface for c in rp.constraints if isinstance(c.value, EntityMatch)
    }
    g = KnowledgeGraph([(e, "r", e) for e in ids], {f"the {e}": {e} for e in ids})

    def surface(e, resolvable=True):
        forms = [e, e.upper(), e.lower(), f"the {e}"]
        return rng.choice(forms if resolvable else forms + [f"no {e}"])

    rp = ReasoningPath(surface(rp.topic_surface), rp.path, tuple(
        replace(c, value=EntityMatch(surface(c.value.surface, resolvable=False)))
        if isinstance(c.value, EntityMatch) else c
        for c in rp.constraints
    ))
    grounded = ground_reasoning_path(g, rp)
    assert grounded.topic_entity in ids
    assert serialize_reasoning_path(grounded) == serialize_reasoning_path(rp)


def _mistyped(c: Constraint) -> Constraint:
    # A year threshold typed as a number, which canonicalize types back.
    v = c.value
    if isinstance(v, NumericCompare) and v.threshold is not None and v.threshold.text.isdigit():
        return Constraint(c.hop, c.relation, NumericCompare(v.op, Literal(NUMERIC, v.threshold.text)))
    return c


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000_000))
def test_serialization_is_already_canonical(seed):
    # exact_match compares the texts of two paths without canonicalizing
    # them: the text sorts constraints and prints no threshold kind.
    rng = random.Random(seed)
    rp = random_ungrounded_path(rng, max_constraints=5)
    constraints = [_mistyped(c) for c in rp.constraints]
    rng.shuffle(constraints)
    rp = ReasoningPath(rp.topic_surface, rp.path, tuple(constraints), rp.topic_entity)
    assert serialize_reasoning_path(canonicalize(rp)) == serialize_reasoning_path(rp)
