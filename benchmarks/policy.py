"""Simulated reasoning backend: a stateless policy that reads only the prompt.

It plays the model's part for the generated questions (see workloads.py):
the question text lists the relation words of the planted path, the plan
gets one step per word, and selection picks the candidate whose relation
carries the current step's word.  Because it keeps no state between calls,
one policy object and one shared Engine serve every question, as a real
model behind an API would.

Modes:

* ``direct`` follows the planted path on the first attempt.
* ``detour`` picks a wrong candidate on each step's first attempt (no
  "Already failed" block in the prompt yet), classifies it as Mismatch and
  answers PathCorrect, so the failed path is blacklisted.  Generation 0's
  plan also holds one step no edge satisfies; it spends the path-correction
  budget, the engine coerces a Replan, and the new plan covers the hops
  not yet in the accepted knowledge.
* ``sabotage`` picks a wrong candidate and believes it: the run finishes
  normally with a wrong answer.  Only the smoke test uses it, to show the
  correctness gate fires.

``calls`` and ``prompt_chars`` meter the backend the way an API bill would.
"""

from __future__ import annotations

import re

MODES = ("direct", "detour", "sabotage")
UNSATISFIABLE = "nowhere"  # no relation in any generated graph carries this word

_QUESTION = re.compile(r"^Question: .* by following (.+)\?$", re.M)
_REPLANS = re.compile(r"^Replans used: (\d+)/", re.M)
_STEP_OBJECTIVE = re.compile(r"^Current step objective: follow (\S+)$", re.M)
_OBJECTIVE = re.compile(r"^Current objective: follow (\S+)$", re.M)
_CANDIDATE = re.compile(r"^(\d+)\. [^—\n]*—([^→\n]*)→", re.M)
_PREDICTION = re.compile(r"^Prediction: the entity reached via (\S+)$", re.M)
_CHOSEN = re.compile(r"^Chosen triple: [^—\n]*—([^→\n]*)→", re.M)
_LEVEL = re.compile(r"^Outcome classification: (\w+)$", re.M)
_REFLECTION = re.compile(r"^Last reflection: The outcome was (\w+)\.$", re.M)
_TOKENS = re.compile(r"[a-z0-9]+")


def _relation_tokens(relation: str) -> list[str]:
    return _TOKENS.findall(relation.lower())


def _accepted_knowledge(prompt: str) -> list[str]:
    """Rendered chain lines under the planner context's "Accepted knowledge:"."""
    _, found, rest = prompt.partition("\nAccepted knowledge:\n")
    if not found:
        return []
    lines = []
    for line in rest.split("\n"):
        if not line.startswith("  "):
            break
        lines.append(line.strip())
    return lines


class PromptPolicy:
    def __init__(self, mode: str = "direct"):
        if mode not in MODES:
            raise ValueError(f"unknown policy mode {mode!r}")
        self.mode = mode
        self.calls = 0
        self.prompt_chars = 0

    def complete(self, prompt: str, stage: str) -> str:
        self.calls += 1
        self.prompt_chars += len(prompt)
        return getattr(self, f"_{stage}")(prompt)

    def _decompose(self, prompt: str) -> str:
        words = _QUESTION.search(prompt).group(1).split(" then ")
        done: set[str] = set()
        for line in _accepted_knowledge(prompt):
            done.update(_relation_tokens(line.split("—", 1)[1].split("→", 1)[0]))
        remaining = [w for w in words if w not in done]
        if self.mode == "detour" and _REPLANS.search(prompt).group(1) == "0":
            remaining.insert(1, UNSATISFIABLE)
        return "\n".join(
            f"STEP: follow {w} | Follow the {w} relation from the current entity."
            for w in remaining
        )

    def _predict(self, prompt: str) -> str:
        word = _STEP_OBJECTIVE.search(prompt).group(1)
        return f"OUTCOME: the entity reached via {word}\nENTITY_KIND: entity\nCONFIDENCE: high"

    def _select(self, prompt: str) -> str:
        word = _OBJECTIVE.search(prompt).group(1)
        right, wrong = [], []
        for index, relation in _CANDIDATE.findall(prompt):
            (right if word in _relation_tokens(relation) else wrong).append(index)
        first_attempt = "\nAlready failed on this step" not in prompt
        if self.mode == "sabotage" or (self.mode == "detour" and first_attempt):
            pick = (wrong or right)[0]
        else:
            pick = (right or wrong)[0]
        return f"CHOICE: {pick}\nRATIONALE: candidate {pick} is the edge for {word}"

    def _classify(self, prompt: str) -> str:
        word = _PREDICTION.search(prompt).group(1)
        followed = word in _relation_tokens(_CHOSEN.search(prompt).group(1))
        if followed or self.mode == "sabotage":
            return f"LEVEL: Fulfilled\nDETAIL: the chosen edge is {word}"
        return f"LEVEL: Mismatch\nDETAIL: the chosen edge is not {word}"

    def _think(self, prompt: str) -> str:
        return f"The outcome was {_LEVEL.search(prompt).group(1)}."

    def _evaluate(self, prompt: str) -> str:
        if _REFLECTION.search(prompt).group(1) == "fulfilled":
            return "DECISION: Proceed\nRATIONALE: the step objective is met"
        return "DECISION: PathCorrect\nRATIONALE: the chosen edge does not match the step"

    def _answer(self, prompt: str) -> str:
        last = _accepted_knowledge(prompt)[-1]
        return f"ANSWER: {last.split('→ ', 1)[1]}"
