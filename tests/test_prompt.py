import codecs
import dataclasses
import re
from importlib import resources

import pytest

from molrag.prompt import (
    CAPTION_MASK,
    MOLECULE_MASK,
    PromptError,
    build_prompt,
    default_template,
    drop_longest_example,
    estimate_tokens,
    load_template,
    parse_template,
)
from molrag.store import MoleculeRecord

SEPARATOR = "\n<<<USER>>>\n"

MINIMAL_TEMPLATE = """\
## role
Chemist.

## task
Describe the molecule.

## example_format
In: {{input}}
Out: {"caption": "{{output}}"}

## output_instruction
JSON {"caption": "..."} only.

## user
Q: {{query}}
"""


def record(i: int, smiles: str = "CCO", caption: str = "An alcohol.") -> MoleculeRecord:
    return MoleculeRecord(id=str(i), smiles=smiles, caption=caption)


class TestTemplateParsing:
    def test_minimal_template(self):
        tmpl = parse_template(MINIMAL_TEMPLATE, "mol2cap")
        assert tmpl.role_identification == "Chemist."
        assert tmpl.required_key == "caption"

    def test_missing_section(self):
        broken = MINIMAL_TEMPLATE.replace("## user", "## elsewhere")
        with pytest.raises(PromptError, match=r"<memory>: missing section\(s\) user$"):
            parse_template(broken, "mol2cap")

    def test_missing_placeholder(self):
        broken = MINIMAL_TEMPLATE.replace("{{input}}", "input")
        with pytest.raises(PromptError, match="example_format needs {{input}} and {{output}}"):
            parse_template(broken, "mol2cap")

    def test_output_instruction_names_one_key(self):
        wrong_key = MINIMAL_TEMPLATE.replace('JSON {"caption": "..."}', 'JSON {"molecule": "..."}')
        with pytest.raises(PromptError, match='must name exactly the key "caption"'):
            parse_template(wrong_key, "mol2cap")
        both_keys = MINIMAL_TEMPLATE.replace(
            'JSON {"caption": "..."}', 'JSON {"caption": "..."} or {"molecule": "..."}'
        )
        with pytest.raises(PromptError, match='must name exactly the key "caption"'):
            parse_template(both_keys, "mol2cap")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "t.tmpl"
        path.write_text(MINIMAL_TEMPLATE, encoding="utf-8")
        assert load_template(path, "mol2cap").source == str(path)

    @pytest.mark.parametrize("task", ["mol2cap", "cap2mol"])
    def test_byte_order_mark_is_no_part_of_the_first_section(self, tmp_path, task):
        # some editors start a UTF-8 file with one
        builtin = default_template(task)
        text = resources.files("molrag").joinpath(f"templates/{task}.tmpl").read_bytes()
        path = tmp_path / "t.tmpl"
        path.write_bytes(codecs.BOM_UTF8 + text)
        assert dataclasses.replace(load_template(path, task), source=builtin.source) == builtin

    def test_defaults_load(self):
        assert default_template("mol2cap").task == "mol2cap"
        assert default_template("cap2mol").required_key == "molecule"


class TestAssembly:
    def test_zero_shot_masks(self):
        p = build_prompt(default_template("mol2cap"), "CCO", [])
        assert CAPTION_MASK in p.system_text
        assert MOLECULE_MASK in p.system_text
        assert p.example_count == 0

        p = build_prompt(default_template("cap2mol"), "some text", [])
        assert MOLECULE_MASK in p.system_text
        assert CAPTION_MASK in p.system_text

    def test_masks_absent_with_examples(self):
        p = build_prompt(default_template("mol2cap"), "CCO", [record(1)])
        assert CAPTION_MASK not in p.system_text
        assert MOLECULE_MASK not in p.system_text

    def test_example_count_and_order(self):
        examples = [record(i, smiles=f"{'C' * (i + 1)}O") for i in range(3)]
        p = build_prompt(default_template("mol2cap"), "CCO", examples)
        assert p.example_count == 3
        positions = [p.system_text.index(f"Input: {'C' * (i + 1)}O") for i in range(3)]
        assert positions == sorted(positions)  # most similar (rank 1) first

    def test_examples_verbatim(self):
        caption = 'A caption with "quotes", tabs\tand unicode α.'
        smiles = "C[C@@H](N)C(=O)O"
        p = build_prompt(default_template("mol2cap"), "CCO", [record(1, smiles, caption)])
        assert caption in p.system_text
        assert smiles in p.system_text

    def test_four_blocks_in_order(self):
        p = build_prompt(default_template("mol2cap"), "CCO", [record(1)])
        delimiters = [m.group(0) for m in re.finditer(r"^## \w+", p.system_text, re.M)]
        assert delimiters == ["## role", "## task", "## examples", "## output_instruction"]

    def test_ten_examples(self):
        examples = [record(i) for i in range(10)]
        p = build_prompt(default_template("cap2mol"), "text", examples)
        assert p.example_count == 10
        assert p.system_text.count("Example ") == 10

    def test_byte_identical_across_calls(self):
        examples = [record(1), record(2, "CC", "Ethane.")]
        a = build_prompt(default_template("mol2cap"), "CCO", examples)
        b = build_prompt(default_template("mol2cap"), "CCO", examples)
        assert a.system_text == b.system_text
        assert a.user_text == b.user_text

    def test_golden_snapshots(self, data_dir, corpus_records):
        cases = {
            "mol2cap_2shot.txt": ("mol2cap", "CCO", corpus_records[:2]),
            "mol2cap_zero.txt": ("mol2cap", "CCO", []),
            "cap2mol_3shot.txt": ("cap2mol", "An interesting alcohol.", corpus_records[3:6]),
            "cap2mol_zero.txt": ("cap2mol", "An interesting alcohol.", []),
        }
        for name, (task, query, examples) in cases.items():
            prompt = build_prompt(default_template(task), query, examples)
            expected = (data_dir / "golden" / name).read_text(encoding="utf-8")
            assert prompt.system_text + SEPARATOR + prompt.user_text == expected, name


class TestTokenEstimate:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_formula(self):
        assert estimate_tokens("x" * 300) == 100
        assert estimate_tokens("x" * 301) == 101

    def test_prompt_estimate_positive(self):
        p = build_prompt(default_template("mol2cap"), "C", [])
        assert p.token_estimate >= 1
        assert p.token_estimate == estimate_tokens(p.system_text) + estimate_tokens(p.user_text)


class TestDropLongest:
    def test_drops_longest(self):
        tmpl = default_template("mol2cap")
        examples = [
            record(1, caption="x" * 10),
            record(2, caption="y" * 50),
            record(3, caption="z" * 20),
        ]
        remaining = drop_longest_example(tmpl, examples)
        assert [r.id for r in remaining] == ["1", "3"]

    def test_tie_drops_later(self):
        tmpl = default_template("mol2cap")
        examples = [record(1, caption="a" * 30), record(2, caption="b" * 30)]
        remaining = drop_longest_example(tmpl, examples)
        assert [r.id for r in remaining] == ["1"]

    def test_empties_in_n_steps(self):
        tmpl = default_template("mol2cap")
        examples = [record(i, caption="c" * (10 + i)) for i in range(4)]
        for expected_len in (3, 2, 1, 0):
            examples = drop_longest_example(tmpl, examples)
            assert len(examples) == expected_len
        with pytest.raises(PromptError, match="no examples left to drop"):
            drop_longest_example(tmpl, examples)
