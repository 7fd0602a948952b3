"""Verdicts and reports produced by the checking engines.

Every check in this package answers with a tri-state verdict: the property
holds (exhaustively or on a recorded sample), it fails with a concrete
re-checkable witness, or it is not applicable (e.g. a complement law on an
algebra that declares no complement). Sampled verdicts always record the
sample count and seed so a run can be reproduced exactly.

The records are frozen dataclasses. Each writes its fields into its instance
dict in its own ``__init__``, with the parameters, order and defaults of its
fields, as a law scan builds thousands of them: a generated frozen
``__init__`` sets each field through ``object.__setattr__``, about twice the
cost. Equality, hashing, ``repr``, ``replace`` and ``fields`` are the
dataclass's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def render_element(value: Any) -> str:
    """Stable text form for carrier elements: a token, ``n`` or ``n/d`` for a rational, a matrix's rows."""
    return str(value)


@dataclass(frozen=True)
class Witness:
    """A concrete counterexample: inputs plus the two unequal sides."""

    inputs: tuple
    lhs: Any
    rhs: Any
    note: str = ""

    def __init__(self, inputs: tuple, lhs: Any, rhs: Any, note: str = ""):
        fields = self.__dict__
        fields["inputs"], fields["lhs"], fields["rhs"], fields["note"] = inputs, lhs, rhs, note

    def describe(self) -> str:
        ins = ", ".join(render_element(v) for v in self.inputs)
        text = f"inputs ({ins}) give {render_element(self.lhs)} != {render_element(self.rhs)}"
        if self.note:
            text = f"{self.note}: {text}"
        return text


@dataclass(frozen=True)
class Verdict:
    status: str  # "holds" | "fails" | "not-applicable"
    mode: str | None = None  # "exhaustive" | "sampled" when status == "holds"
    witness: Witness | None = None
    samples: int | None = None
    seed: int | None = None
    reason: str | None = None
    details: tuple[tuple[str, Any], ...] = field(default=())

    def __init__(
        self,
        status: str,
        mode: str | None = None,
        witness: Witness | None = None,
        samples: int | None = None,
        seed: int | None = None,
        reason: str | None = None,
        details: tuple[tuple[str, Any], ...] = (),
    ):
        fields = self.__dict__
        fields["status"], fields["mode"], fields["witness"], fields["samples"] = status, mode, witness, samples
        fields["seed"], fields["reason"], fields["details"] = seed, reason, details

    @classmethod
    def holds_exhaustive(cls, **extra) -> "Verdict":
        """An exhaustive pass; with no ``extra`` fields, the one shared instance."""
        return cls(status="holds", mode="exhaustive", **extra) if extra else _HOLDS_EXHAUSTIVE

    @classmethod
    def holds_sampled(cls, samples: int, seed: int, **extra) -> "Verdict":
        return cls(status="holds", mode="sampled", samples=samples, seed=seed, **extra)

    @classmethod
    def fails(cls, witness: Witness, **extra) -> "Verdict":
        return cls("fails", None, witness, **extra)

    @classmethod
    def not_applicable(cls, reason: str) -> "Verdict":
        return cls(status="not-applicable", reason=reason)

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def failed(self) -> bool:
        return self.status == "fails"

    @property
    def applicable(self) -> bool:
        return self.status != "not-applicable"

    def describe(self) -> str:
        if self.status == "holds":
            if self.mode == "sampled":
                return f"holds (sampled, samples={self.samples}, seed={self.seed})"
            return "holds (exhaustive)"
        if self.status == "fails":
            return f"fails: {self.witness.describe()}"
        return f"not applicable ({self.reason})"


_HOLDS_EXHAUSTIVE = Verdict("holds", "exhaustive")


@dataclass(frozen=True)
class LawReport:
    """Per-law verdict for one algebra or one family."""

    law: str
    verdict: Verdict

    def __init__(self, law: str, verdict: Verdict):
        fields = self.__dict__
        fields["law"], fields["verdict"] = law, verdict

    def describe(self) -> str:
        return f"{self.law}: {self.verdict.describe()}"
