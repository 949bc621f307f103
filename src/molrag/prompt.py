"""Prompt assembly for both translation directions.

Templates live in external files, never in code, so experiments can swap
wording without a release. A template file has five sections introduced by
``## role``, ``## task``, ``## example_format``, ``## output_instruction`` and
``## user`` marker lines. The assembled system text keeps four block
delimiters (role, task, examples, output instruction) in fixed order; the
user text carries the query.

Zero-shot prompts replace the examples block with a single masked rendering
using the literal ``[MOLECULE_MASK]`` / ``[CAPTION_MASK]`` spans.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from molrag.errors import MolragError
from molrag.store import TASKS, MoleculeRecord

MOLECULE_MASK = "[MOLECULE_MASK]"
CAPTION_MASK = "[CAPTION_MASK]"
# the zero-shot example: each field shows only its mask
_MASKED = MoleculeRecord(id="", smiles=MOLECULE_MASK, caption=CAPTION_MASK)

_SECTIONS = ("role", "task", "example_format", "output_instruction", "user")


class PromptError(MolragError):
    """A template lacks a section or placeholder, or there is no example left to evict."""


@dataclass(frozen=True)
class PromptTemplate:
    role_identification: str
    task_description: str
    example_format: str
    output_instruction: str
    user_format: str
    task: str
    source: str = "<memory>"

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if "{{input}}" not in self.example_format or "{{output}}" not in self.example_format:
            raise PromptError(
                f"{self.source}: example_format needs {{{{input}}}} and {{{{output}}}}"
            )
        if "{{query}}" not in self.user_format:
            raise PromptError(f"{self.source}: user section needs {{{{query}}}}")
        key = self.required_key
        named = [spec.answer_key for spec in TASKS.values()
                 if f'"{spec.answer_key}"' in self.output_instruction]
        if named != [key]:
            raise PromptError(
                f"{self.source}: output_instruction must name exactly the key \"{key}\""
            )

    @property
    def required_key(self) -> str:
        return TASKS[self.task].answer_key


def parse_template(text: str, task: str, source: str = "<memory>") -> PromptTemplate:
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("## ") and stripped[3:] in _SECTIONS:
            current = stripped[3:]
            sections[current] = []
            continue
        if current is not None:
            sections[current].append(line)
    missing = [name for name in _SECTIONS if name not in sections]
    if missing:
        raise PromptError(f"{source}: missing section(s) {', '.join(missing)}")
    blocks = {name: "\n".join(lines).strip() for name, lines in sections.items()}
    return PromptTemplate(
        role_identification=blocks["role"],
        task_description=blocks["task"],
        example_format=blocks["example_format"],
        output_instruction=blocks["output_instruction"],
        user_format=blocks["user"],
        task=task,
        source=source,
    )


def load_template(path, task: str) -> PromptTemplate:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # an editor's byte-order mark is no text
    except (OSError, UnicodeDecodeError) as exc:
        raise PromptError(f"cannot read template {path}: {exc}") from exc
    return parse_template(text, task, source=str(path))


def default_template(task: str) -> PromptTemplate:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    text = resources.files("molrag").joinpath(f"templates/{task}.tmpl").read_text("utf-8")
    return parse_template(text, task, source=f"builtin:{task}.tmpl")


@dataclass(frozen=True)
class ChatPrompt:
    system_text: str
    user_text: str
    example_count: int
    token_estimate: int


def estimate_tokens(text: str) -> int:
    """Deterministic upper-bound token estimate: ceil(utf-8 bytes / 3)."""
    return math.ceil(len(text.encode("utf-8")) / 3)


_SLOT_RE = re.compile(r"\{\{(index|input|output|query)\}\}")


def _fill(pattern: str, values: dict[str, str]) -> str:
    # single pass: substituted text is never rescanned, so example content
    # containing a literal {{...}} span stays verbatim
    return _SLOT_RE.sub(lambda m: values.get(m.group(1), m.group(0)), pattern)


def _render_examples(template: PromptTemplate, records: list[MoleculeRecord]) -> list[str]:
    spec = TASKS[template.task]
    return [
        _fill(
            template.example_format,
            {
                "index": str(index),
                "input": getattr(rec, spec.input_field),
                "output": getattr(rec, spec.output_field),
            },
        )
        for index, rec in enumerate(records, start=1)
    ]


def build_prompt(
    template: PromptTemplate, query: str, examples: list[MoleculeRecord]
) -> ChatPrompt:
    """System + user prompt for the template's task; empty examples = zero-shot."""
    examples_block = "\n\n".join(_render_examples(template, examples or [_MASKED]))

    system_text = (
        f"## role\n{template.role_identification}\n\n"
        f"## task\n{template.task_description}\n\n"
        f"## examples\n{examples_block}\n\n"
        f"## output_instruction\n{template.output_instruction}"
    )
    user_text = _fill(template.user_format, {"query": query})
    return ChatPrompt(
        system_text=system_text,
        user_text=user_text,
        example_count=len(examples),
        token_estimate=estimate_tokens(system_text) + estimate_tokens(user_text),
    )


def drop_longest_example(
    template: PromptTemplate, examples: list[MoleculeRecord]
) -> list[MoleculeRecord]:
    """Remove the example whose rendered text is longest; ties drop the
    lower-ranked (later) one. Remaining examples keep their order."""
    if not examples:
        raise PromptError("no examples left to drop")
    lengths = [len(text) for text in _render_examples(template, examples)]
    longest = max(lengths)
    victim = max(i for i, length in enumerate(lengths) if length == longest)
    return examples[:victim] + examples[victim + 1 :]
