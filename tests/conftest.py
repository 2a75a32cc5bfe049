from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Callable, TypeVar

import pytest

from kgrelay.execute import TIER_FULL, execute_with_relaxation
from kgrelay.kg import load_tsv
from kgrelay.reasoning import ground_reasoning_path, parse_reasoning_path

DATA = Path(__file__).resolve().parent.parent / "data"

WORKED_TEXT = """\
TOPIC: USA
PATH: country.presidents -> president.office_holder
CONSTRAINT: hop=2; rel=education.institution; entity=Harvard
CONSTRAINT: hop=2; rel=position.from; op=GE; value="2000"
"""

WORKED_ARGMAX_TEXT = WORKED_TEXT + 'CONSTRAINT: hop=2; rel=position.from; op=ARGMAX\n'

T = TypeVar("T")


def timed(call: Callable[[], T]) -> tuple[T, float]:
    """Run ``call`` and return its result and wall time in seconds.

    As ``timeit`` does, the cyclic collector runs first and stays off while
    the call runs, so a collection owed by the rest of the suite cannot
    land inside the timed region.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def full_answers(g, rp, walks=None):
    """The answers of ``rp`` with every constraint, its tier-0 walk, through
    ``walks`` when given, else through a memo of its own."""
    return execute_with_relaxation(g, rp, {} if walks is None else walks, (TIER_FULL,)).answers


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def presidents():
    return load_tsv(DATA / "presidents.tsv")


@pytest.fixture(scope="session")
def presidents_tsv_text() -> str:
    return (DATA / "presidents.tsv").read_text(encoding="utf-8")


@pytest.fixture
def worked_path(presidents):
    return ground_reasoning_path(presidents, parse_reasoning_path(WORKED_TEXT))


@pytest.fixture
def worked_argmax_path(presidents):
    return ground_reasoning_path(presidents, parse_reasoning_path(WORKED_ARGMAX_TEXT))
