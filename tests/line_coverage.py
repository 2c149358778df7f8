"""Line coverage of ``src/uenl`` under the tier-1 suite, standard library only.

    PYTHONPATH=src python tests/line_coverage.py [pytest args ...]

Installs a ``sys.settrace`` hook, runs pytest in this process (by default
the whole suite, quietly), and prints every executable line of
``src/uenl/*.py`` that no test ran, with its text and the reason it stays
unrun (``UNRUN``; a line with none says so), then the total
``ran/executable``. Executable lines are the line numbers of the compiled
code objects. Python subprocesses that tests start (``python -m uenl``)
are followed too: a ``sitecustomize`` on ``PYTHONPATH`` installs the same
hook in each and writes its lines to a file when it exits, so a line that
only a subprocess runs counts as run. A subprocess killed before it exits
reports nothing. The name does not match ``test_*``, so pytest does not
collect this script.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uenl"
# Imported by every Python process started with the temporary directory on
# PYTHONPATH; it reports to that directory.
SITECUSTOMIZE = """import sys
sys.path.insert(0, {tests!r})
import line_coverage
sys.path.remove({tests!r})
line_coverage.follow({out!r})
"""
# Why each line that no test runs stays unrun, keyed by file name and the
# line's stripped text, which do not move when lines above it do.
UNRUN = {
    ("cli.py", "sys.exit(main())"): "the `python -m uenl.cli` guard; the CLI runs as `python -m uenl`",
    ("harness.py", 'raise ValueError(f"unknown scoring method {method!r}")'):
        "invariant: `ScoringSpec` accepts only `SCORE_METHODS`",
    ("model.py", "from .config import ExperimentConfig"): "for type checkers only, under `TYPE_CHECKING`",
    ("tensor.py", "raise AssertionError("): "invariant: every VJP returns its parents' shapes (criterion 1 checks each)",
    ("tensor.py", 'f"{node.op} vjp produced shape {contribution.shape} for parent of shape {parent.value.shape}"'):
        "invariant: every VJP returns its parents' shapes (criterion 1 checks each)",
}


def executable_lines(path: Path) -> set[int]:
    """Every line number that the code objects compiled from ``path`` carry."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def install() -> dict[str, set[int]]:
    """Trace this process's lines in ``src/uenl`` into the returned dict,
    keyed by file name, until ``sys.settrace(None)``."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(hook)
    sys.settrace(hook)
    return ran


def follow(out_dir: str) -> None:
    """In a subprocess: trace it, and write its lines to ``out_dir`` at exit."""
    ran = install()

    def dump():
        path = Path(out_dir) / f"{os.getpid()}.json"
        path.write_text(json.dumps({name: sorted(lines) for name, lines in ran.items()}), encoding="utf-8")

    atexit.register(dump)


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` under the hook, and its Python
    subprocesses under the same hook; return pytest's exit code and the
    lines run per ``src/uenl`` file."""
    import pytest

    with tempfile.TemporaryDirectory() as out:
        Path(out, "sitecustomize.py").write_text(SITECUSTOMIZE.format(tests=str(ROOT / "tests"), out=out))
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [out, saved]))
        ran = install()
        try:
            code = pytest.main(pytest_args)
        finally:
            sys.settrace(None)
            threading.settrace(None)
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
        for report in Path(out).glob("*.json"):
            for name, lines in json.loads(report.read_text(encoding="utf-8")).items():
                ran.setdefault(name, set()).update(lines)
    return int(code), ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, ran = run_traced(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    total = hit = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        done = ran.get(str(path), set()) & lines
        total, hit = total + len(lines), hit + len(done)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - done):
            source = text[line - 1].strip()
            reason = UNRUN.get((path.name, source), "NO REASON: run it in a test, delete it or add it to UNRUN")
            print(f"{path.relative_to(ROOT)}:{line}: {source}  # {reason}")
    print(f"ran {hit}/{total} executable lines of src/uenl (pytest exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
