"""Every input file through ``cli.main``, changed one JSON node or one byte fault at a time.

Each example takes one demo input file of a subcommand and changes it once:
one JSON node becomes a value of another type or shape, one key is dropped
or renamed, or the bytes are truncated, made non-UTF-8 or emptied. Then the
subcommand runs in process on it. Whatever the change:

- no exception escapes;
- exit 2 comes with a JSON envelope whose step is not ``internal``;
- exit 1 prints ``error:`` naming one of the input files, except that
  ``catalog-validate`` lists a catalog's violations in its own format;
- in any file but the catalog, a string replaced by a non-string exits 1,
  naming the file and the JSON locus of the string;
- a document that ``generate`` writes re-exports byte for byte.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LINEAR_FLOW
from flowgen import InputError, check, cli, fixture_path
from flowgen.catalog import CatalogValidationError, load_catalog
from flowgen.pipeline import PipelineConfig, build_runtime, emit, generate_with_runtime

REPLACEMENTS = (None, 0, -1, 10**30, 1.5, True, "", "x", [], {}, ["x"], {"x": 1}, "\ud800", [[[[]]]])
CHANGES = ("replace",) * 6 + ("drop", "rename", "truncate", "not-utf8", "empty")
# the files that generate reads, by the flag that names each
GENERATE_FILES = {
    "--catalog": "demo_catalog.json",
    "--examples": "demo_bank.json",
    "--split-examples": "split_examples.json",
    "--classifier": "demo_training_pairs.json",
    "--registry": "demo_registry.json",
    "--mock-scripts": "mock_scripts_demo.json",
}
EVAL_SCRIPTS = str(fixture_path("mock_scripts_eval.json"))
# (subcommand, the flag of the file that changes)
TARGETS = [
    *(("generate", flag) for flag in GENERATE_FILES),
    ("eval", "--dataset"),
    ("export", "--workflow"),
    ("catalog-validate", "--catalog"),
]


@cache
def demo_text(command: str, flag: str) -> str:
    """The demo contents of the file that ``flag`` names for ``command``."""
    if flag == "--workflow":
        cfg = PipelineConfig(mock_scripts_path=fixture_path("mock_scripts_demo.json"))
        return emit(generate_with_runtime(LINEAR_FLOW, build_runtime(cfg)))
    name = "eval_dataset_small.json" if flag == "--dataset" else GENERATE_FILES[flag]
    return fixture_path(name).read_text(encoding="utf-8")


def nodes(value: object, path: tuple = ()) -> list[tuple]:
    """The path of every node of a JSON value, the value itself first."""
    out = [path]
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        out += nodes(item, (*path, key))
    return out


def locus(path: tuple) -> str:
    """A JSON path as an error names it, as in ``[3].operators[1]`` or ``bindings.sort.Key``."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).removeprefix(".")


def changed(doc: object, path: tuple, change: str, new: object) -> object:
    """A copy of ``doc`` with the node at ``path`` replaced by ``new``, or its key dropped or renamed."""
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if change == "replace":
        parent[path[-1]] = new
    else:
        value = parent.pop(path[-1])
        if change == "rename":
            parent[path[-1] + "_x"] = value
    return doc


@st.composite
def faults(draw, command: str, flag: str) -> tuple[bytes, str | None, str]:
    """The changed file's bytes; the locus of a string that became a non-string, else None; a label."""
    text = demo_text(command, flag)
    change = draw(st.sampled_from(CHANGES))
    if change == "empty":
        return b"", None, change
    data = text.encode("utf-8")
    if change == "truncate":
        end = draw(st.integers(0, len(data) - 1))
        return data[:end], None, f"truncated at {end}"
    if change == "not-utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:], None, f"0xff at {at}"
    doc = json.loads(text)
    paths = [p for p in nodes(doc) if change == "replace" or (p and isinstance(p[-1], str))]
    path = draw(st.sampled_from(paths))
    new = draw(st.sampled_from(REPLACEMENTS)) if change == "replace" else None
    old = doc
    for key in path:
        old = old[key]
    out = json.dumps(changed(doc, path, change, new), indent=2)
    typo = change == "replace" and isinstance(old, str) and not isinstance(new, str)
    return out.encode("utf-8"), locus(path) if typo else None, f"{change} {path!r} with {new!r}"


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def argv_of(command: str, files: dict[str, str], out: Path) -> list[str]:
    """The arguments that run ``command`` on ``files``, by flag; ``generate`` writes to ``out``."""
    flags = [arg for flag, path in files.items() for arg in (flag, path)]
    return {
        "generate": ["generate", "--utterance", LINEAR_FLOW, *flags, "--out", str(out)],
        "eval": ["eval", "--strategy", "single", "--mock-scripts", EVAL_SCRIPTS, *flags],
        "export": ["export", "--format", "doc", *flags],
        "catalog-validate": ["catalog-validate", *flags],
    }[command]


def violations(path: Path) -> str | None:
    """What ``catalog-validate`` prints for a catalog that parses but fails validation, else None."""
    try:
        load_catalog(path)
    except CatalogValidationError as exc:
        return "".join(f"{v.stage}: {v.field}: {v.message}\n" for v in exc.violations)
    except ValueError:
        pass
    return None


@pytest.mark.parametrize(
    "value, shape, where, message",
    [
        (True, int, {}, "in.json: expected integer, got bool"),
        (1, bool, {}, "in.json: expected boolean, got int"),
        (1, float, {}, "in.json: expected float, got int"),
        ({"a": [1, "b"]}, {"a": [int]}, {}, "in.json: a[1]: expected integer, got str"),
        ([{"a": 1}], [{"b": str}], {}, "in.json: [0].b: expected str, got NoneType"),
        ({"a": None}, {"a?": str}, {}, "in.json: a: expected str, got NoneType"),
        ({}, {"a?": str, "b": [str]}, {}, "in.json: b: expected list"),
        ({"k": {"x": 1}}, {str: {str: str}}, {}, "in.json: k.x: expected str, got int"),
        ("x", (None, [str]), {}, "in.json: expected list"),
        ([], (str, int, float), {}, "in.json: expected str or integer or float, got list"),
        ({"a": None, "b": {}, "c": 1.5}, {"a?": (None, str), "b": dict, "c": (str, int, float)}, {}, None),
        # a None key names an object; ``where`` may be a locus in a file, or nothing
        ([5], [{None: "doc object", "b": str}], {}, "in.json: [0]: expected doc object"),
        ({"b": None}, {"b": (None, {None: "doc object"})}, {}, None),
        (1, str, {"where": "in.json: doc[2].b"}, "in.json: doc[2].b: expected str, got int"),
        ({"b": 1}, {"b": str}, {"where": ""}, "b: expected str, got int"),
    ],
)
def test_check_names_the_locus_and_the_expected_and_found_types(value, shape, where, message):
    where = {"where": "in.json", **where}
    if message is None:
        assert check(value, shape, **where) is value
        return
    with pytest.raises(InputError) as err:
        check(value, shape, **where)
    assert str(err.value) == message


@pytest.mark.parametrize("command, flag", TARGETS, ids=[f"{c}{f}" for c, f in TARGETS])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_changed_input_file_exits_0_1_or_2_as_the_contract_says(command, flag, data):
    content, typo, label = data.draw(faults(command, flag), label="fault")
    with tempfile.TemporaryDirectory() as tmp:
        changed_file = Path(tmp, "input.json")
        changed_file.write_bytes(content)
        defaults = {f: str(fixture_path(name)) for f, name in GENERATE_FILES.items()}
        files = {**defaults, flag: str(changed_file)} if command == "generate" else {flag: str(changed_file)}
        # the files a run reads: eval reads the default demo files, and its own scripts
        named = [*files.values(), *((EVAL_SCRIPTS, *defaults.values()) if command == "eval" else ())]
        out_file = Path(tmp, "flow.json")
        code, out, err = run(argv_of(command, files, out_file))
        if typo is not None and flag != "--catalog":
            assert (code, out) == (1, ""), label
            assert err.startswith(f"error: {changed_file}: {typo}: expected "), (label, err)
        assert code in (0, 1, 2), label
        assert "Traceback" not in err
        if code == 2:
            assert json.loads(err)["error"]["step"] != "internal", (label, err)
        elif code == 1 and command == "catalog-validate" and err == violations(changed_file):
            pass
        elif code == 1:
            assert err.startswith("error: ") and any(name in err for name in named), (label, err)
        elif command == "generate":
            doc = out_file.read_text(encoding="utf-8")
            assert run(["export", "--workflow", str(out_file), "--format", "doc"]) == (0, doc, ""), label
