#!/usr/bin/env python
"""Gate on documentation drift: every ``bash`` block must still be runnable.

Extracts fenced ```bash blocks from the repository's documentation
(README.md, EXPERIMENTS.md, DESIGN.md, docs/OBSERVABILITY.md), then

1. **statically validates** every command — ``python -m repro.X`` modules
   must import, experiment ids must be registered in the bench harness,
   subcommands must exist, referenced scripts/example files and
   pytest/lint target paths must exist on disk;
2. **smoke-runs** a small allowlist of cheap commands end to end
   (``python -m repro.bench --list``, ``python -m repro.analysis lint
   --explain``, ...) so the commands a reader is most likely to paste
   first are proven to work, not just to parse.

Exit code 0 when every block passes, 1 otherwise (the CI lint job gates
on this).  Run from the repository root:

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import shlex
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Documentation files whose ```bash blocks are checked (missing files are
#: themselves a failure — the list is part of the documentation contract).
DOC_FILES = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "docs/OBSERVABILITY.md",
]

#: Commands cheap enough to execute for real (matched after normalisation).
SMOKE_RUN = {
    "python -m repro.bench --list",
    "python -m repro.bench recovery --quick --no-cache",
    "python -m repro.bench scale --quick --no-cache",
    "python -m repro.analysis lint --explain",
    "python -m repro.analysis docstrings src/repro",
    "PYTHONPATH=src python scripts/serve_smoke.py",
}

#: Flags that consume the following token, per CLI prefix.  Keeps the id /
#: path scan from misreading flag values as experiment ids.
VALUE_FLAGS = {
    "python -m repro.bench": {
        "-j",
        "--jobs",
        "--json",
        "--trace",
        "--cache-dir",
    },
    "pytest": {"-m", "-k", "-n", "--cov", "--cov-fail-under"},
}

#: Known subcommands per dispatching CLI.
SUBCOMMANDS = {
    "repro.analysis": {"lint", "sanitize", "docstrings"},
    "repro.obs": {"summary", "diff"},
}


class Problem:
    """One failed check, tied back to its file/line and command."""

    def __init__(self, doc: str, line: int, command: str, message: str):
        self.doc = doc
        self.line = line
        self.command = command
        self.message = message

    def render(self) -> str:
        return f"{self.doc}:{self.line}: `{self.command}`: {self.message}"


def extract_bash_blocks(text: str):
    """Yield ``(lineno, command)`` for each command line in ```bash fences.

    Strips ``$ `` prompts, drops blank/comment lines, joins backslash
    continuations onto one logical line.
    """
    in_bash = False
    pending = ""
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("```"):
            in_bash = stripped[3:].strip() == "bash" and not in_bash
            continue
        if not in_bash:
            continue
        if stripped.startswith("$ "):
            stripped = stripped[2:]
        if pending:
            stripped = pending + " " + stripped
            lineno = pending_line
            pending = ""
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.endswith("\\"):
            pending = stripped[:-1].strip()
            pending_line = lineno
            continue
        yield lineno, stripped


def split_command(command: str):
    """Tokenise; returns (env_assignments, argv) or (None, None) if odd."""
    try:
        tokens = shlex.split(command, comments=True)
    except ValueError:
        return None, None
    env = []
    while tokens and "=" in tokens[0] and not tokens[0].startswith(("-", "/")):
        env.append(tokens.pop(0))
    return env, tokens


def module_exists(module: str) -> bool:
    """True when ``python -m module`` would find something to run."""
    import importlib.util

    try:
        spec = importlib.util.find_spec(module)
    except (ImportError, ValueError):
        return False
    if spec is None:
        return False
    if spec.submodule_search_locations is not None:
        # A package: -m needs a __main__ inside it.
        return importlib.util.find_spec(module + ".__main__") is not None
    return True


def positional_args(argv, value_flags):
    """Non-flag tokens of *argv*, skipping the values of value-taking flags."""
    out = []
    skip = False
    for tok in argv:
        if skip:
            skip = False
            continue
        if tok.startswith("-"):
            flag = tok.split("=", 1)[0]
            if flag in value_flags and "=" not in tok:
                skip = True
            continue
        out.append(tok)
    return out


def check_command(command: str):
    """Statically validate one command; returns a list of problem strings."""
    env, argv = split_command(command)
    if argv is None:
        return ["cannot tokenise (unbalanced quotes?)"]
    if not argv:
        return []  # pure env assignment / comment-only line
    prog = argv[0]

    if prog == "pip":
        return []  # environment-dependent by design; never validated or run

    if prog == "curl":
        # The serve quickstart: talks to a live service, so there is
        # nothing to validate statically and nothing safe to smoke-run.
        return []

    if prog == "pytest":
        problems = []
        for arg in positional_args(argv[1:], VALUE_FLAGS["pytest"]):
            target = arg.split("::", 1)[0]
            if not (REPO_ROOT / target).exists():
                problems.append(f"pytest target {target!r} does not exist")
        return problems

    if prog != "python":
        return [f"unknown program {prog!r} (extend scripts/check_docs.py)"]

    if len(argv) >= 3 and argv[1] == "-m":
        module = argv[2]
        if not module_exists(module):
            return [f"module {module!r} not importable as `python -m`"]
        rest = argv[3:]
        if module == "repro.bench":
            return _check_bench_args(rest)
        if module in SUBCOMMANDS and rest and not rest[0].startswith("-"):
            if rest[0] not in SUBCOMMANDS[module]:
                return [
                    f"{module} has no subcommand {rest[0]!r} "
                    f"(has: {', '.join(sorted(SUBCOMMANDS[module]))})"
                ]
        return []

    # `python path/to/script.py ...`
    script = argv[1] if len(argv) > 1 else ""
    if script.endswith(".py"):
        if not (REPO_ROOT / script).exists():
            return [f"script {script!r} does not exist"]
        return []
    return []


def _check_bench_args(rest):
    from repro.bench import harness

    known = set(harness.all_ids())
    return [
        f"unknown experiment id {exp_id!r}"
        for exp_id in positional_args(rest, VALUE_FLAGS["python -m repro.bench"])
        if exp_id not in known
    ]


def smoke_run(command: str):
    """Execute one allowlisted command; returns a problem string or None."""
    env, argv = split_command(command)
    proc_env = dict(**__import__("os").environ)
    proc_env["PYTHONPATH"] = str(SRC)
    for assignment in env or []:
        key, _, value = assignment.partition("=")
        proc_env[key] = value
    try:
        proc = subprocess.run(
            argv,
            cwd=REPO_ROOT,
            env=proc_env,
            capture_output=True,
            text=True,
            timeout=180,
        )
    except subprocess.TimeoutExpired:
        return "smoke run timed out after 180 s"
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        return "smoke run exited {}: {}".format(proc.returncode, " | ".join(tail))
    return None


def main() -> int:
    sys.path.insert(0, str(SRC))
    problems: list[Problem] = []
    n_commands = 0
    n_ran = 0
    for doc in DOC_FILES:
        path = REPO_ROOT / doc
        if not path.exists():
            problems.append(Problem(doc, 0, "-", "documentation file is missing"))
            continue
        for lineno, command in extract_bash_blocks(path.read_text(encoding="utf-8")):
            n_commands += 1
            for msg in check_command(command):
                problems.append(Problem(doc, lineno, command, msg))
            env, argv = split_command(command)
            normalised = " ".join((env or []) + (argv or []))
            if normalised in SMOKE_RUN:
                n_ran += 1
                msg = smoke_run(command)
                if msg:
                    problems.append(Problem(doc, lineno, command, msg))

    for p in problems:
        print(p.render())
    print(
        f"check_docs: {n_commands} documented command(s) across "
        f"{len(DOC_FILES)} file(s), {n_ran} smoke-run, "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
