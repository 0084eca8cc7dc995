"""The documentation drift checker (`scripts/check_docs.py`).

Loaded by file path (scripts/ is not a package).  The expensive smoke-run
path is not executed here — CI runs the script itself — but the block
extractor, the command tokenizer and every static validation branch are,
including the property that all currently documented commands pass.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_extract_handles_prompts_comments_and_continuations(check_docs):
    text = "\n".join(
        [
            "prose",
            "```bash",
            "$ python -m repro.bench --list",
            "# a comment line",
            "",
            "python -m repro.bench \\",
            "  table1 fig9",
            "```",
            "```python",
            "print('not bash')",
            "```",
            "```",
            "untagged block",
            "```",
        ]
    )
    blocks = list(check_docs.extract_bash_blocks(text))
    assert blocks == [
        (3, "python -m repro.bench --list"),
        (6, "python -m repro.bench table1 fig9"),
    ]


def test_split_command_peels_env_assignments(check_docs):
    env, argv = check_docs.split_command("REPRO_SANITIZE=1 python scripts/serve_smoke.py")
    assert env == ["REPRO_SANITIZE=1"]
    assert argv == ["python", "scripts/serve_smoke.py"]


def test_split_command_strips_inline_comments(check_docs):
    env, argv = check_docs.split_command("python -m repro.bench --list  # all ids")
    assert argv == ["python", "-m", "repro.bench", "--list"]


def test_known_good_commands_pass(check_docs):
    for command in [
        "pip install -e .",
        "pytest tests/",
        "pytest -m slow",
        "python -m repro.bench table1 fig9",
        "python -m repro.bench --all --json results/run.json",
        "python -m repro.analysis lint src/",
        "python -m repro.analysis docstrings src/repro",
        "python -m repro.obs summary results/trace.json",
        "python scripts/check_docs.py",
        "python examples/quickstart.py",
    ]:
        assert check_docs.check_command(command) == [], command


def test_unknown_module_is_flagged(check_docs):
    (problem,) = check_docs.check_command("python -m repro.nonexistent --flag")
    assert "not importable" in problem


def test_unknown_experiment_id_is_flagged(check_docs):
    (problem,) = check_docs.check_command("python -m repro.bench not_an_experiment")
    assert "unknown experiment id" in problem


def test_unknown_subcommand_is_flagged(check_docs):
    (problem,) = check_docs.check_command("python -m repro.obs frobnicate x.json")
    assert "no subcommand" in problem


def test_missing_script_and_pytest_target_are_flagged(check_docs):
    (problem,) = check_docs.check_command("python scripts/does_not_exist.py")
    assert "does not exist" in problem
    (problem,) = check_docs.check_command("pytest tests/nonexistent_dir/")
    assert "does not exist" in problem


def test_unknown_program_is_flagged(check_docs):
    (problem,) = check_docs.check_command("cargo build --release")
    assert "unknown program" in problem


def test_all_documented_commands_validate_statically(check_docs):
    problems = []
    for doc in check_docs.DOC_FILES:
        path = REPO_ROOT / doc
        assert path.exists(), f"documented file {doc} is missing"
        text = path.read_text(encoding="utf-8")
        for lineno, command in check_docs.extract_bash_blocks(text):
            for msg in check_docs.check_command(command):
                problems.append(f"{doc}:{lineno}: {command}: {msg}")
    assert problems == []


def test_smoke_allowlist_commands_are_documented(check_docs):
    documented = set()
    for doc in check_docs.DOC_FILES:
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        for _, command in check_docs.extract_bash_blocks(text):
            env, argv = check_docs.split_command(command)
            documented.add(" ".join((env or []) + (argv or [])))
    missing = check_docs.SMOKE_RUN - documented
    assert not missing, f"allowlisted but not documented: {missing}"
