"""Exception types shared across the package.

Every error that callers are expected to catch lives here so that the CLI
can map them to exit codes in one place. Each derives from
``KgRelayError``, directly or through ``ProviderError`` or
``RepairError``. A ``detail`` argument is always written into the
message, except an empty one of ``HttpError`` (a 4xx reply with no body).
"""

from __future__ import annotations


class KgRelayError(Exception):
    """Base class for all package errors."""


# --- knowledge graph loading ---

class MalformedLine(KgRelayError):
    """A TSV line does not have three tab-separated fields."""

    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: malformed ({detail})")


class BadLiteral(KgRelayError):
    """A literal token is syntactically or semantically invalid."""

    def __init__(self, line_no: int, token: str, detail: str):
        self.line_no = line_no
        self.token = token
        super().__init__(f"line {line_no}: bad literal {token!r} ({detail})")


class UnknownEntity(KgRelayError):
    """A surface form has no entry in the alias table."""

    def __init__(self, surface: str):
        self.surface = surface
        super().__init__(f"unknown entity: {surface!r}")


# --- reasoning path grammar ---

class ParseError(KgRelayError):
    """Input text does not match the expected grammar.

    Used by both the reasoning-path parser and the query parser; carries
    the 1-based line number where the problem was detected.
    """

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class HopOutOfRange(KgRelayError):
    """A constraint refers to a hop outside 1..len(path)."""

    def __init__(self, index: int, hop: int, depth: int):
        self.index = index
        self.hop = hop
        self.depth = depth
        super().__init__(
            f"constraint {index}: hop {hop} outside 1..{depth}"
        )


# --- query bridge ---

class UnsupportedFeature(KgRelayError):
    """The query uses syntax outside the supported subset."""


class NoTopicEntity(KgRelayError):
    """No named entity roots a path to the selected variable."""


class AmbiguousMainPath(KgRelayError):
    """More than one named-entity path reaches the selected variable."""


class UnclassifiableBranch(KgRelayError):
    """An off-path pattern or filter fits no constraint class."""


class UngroundedTopic(KgRelayError):
    """The reasoning path has no resolved topic entity."""


class UnresolvedConstraintEntity(KgRelayError):
    """An entity constraint has no resolved entity id."""

    def __init__(self, surface: str):
        self.surface = surface
        super().__init__(f"constraint entity not grounded: {surface!r}")


# --- providers ---

class ProviderError(KgRelayError):
    """Base for LLM provider failures."""


class NoScriptMatch(ProviderError):
    """A scripted provider received a prompt no entry matches."""

    def __init__(self, prompt: str):
        self.prompt = prompt
        head = " ".join(prompt.split())[:100]
        super().__init__(f"no scripted reply for prompt: {head!r}")


class MissingKey(ProviderError):
    """The API key environment variable is not set."""

    def __init__(self, env_var: str):
        self.env_var = env_var
        super().__init__(f"environment variable {env_var} is not set")


class HttpError(ProviderError):
    """The HTTP provider exhausted retries on error responses."""

    def __init__(self, status: int, detail: str = ""):
        self.status = status
        msg = f"provider returned status {status}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ProviderTimeout(ProviderError):
    """The HTTP provider exhausted retries on timeouts."""


class ProviderUnreachable(ProviderError):
    """The HTTP provider exhausted retries on failed, dropped or cut-short
    connections."""


class MalformedReply(ProviderError):
    """A 200 reply is not JSON or has no ``choices[0].message.content``,
    or a reply's text does not encode as UTF-8."""


# --- repair ---

class RepairError(KgRelayError):
    """Base for repair-stage failures."""


class EmptyBlueprint(RepairError):
    """The blueprint reply contained no numbered steps."""


class RepairFailed(RepairError):
    """Beam search could not produce any executable path."""

    def __init__(self, depth_reached: int, detail: str):
        self.depth_reached = depth_reached
        super().__init__(f"repair failed at depth {depth_reached}: {detail}")


# --- configuration / datasets ---

class ConfigError(KgRelayError):
    """Bad configuration file, unknown key, or unusable value."""


class DatasetError(KgRelayError):
    """The evaluation dataset cannot be read at all."""
