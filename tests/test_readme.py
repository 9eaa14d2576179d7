"""The README's examples run as written: the library example and the CLI chain on b5.json."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

from blaschke.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced(language: str) -> list[str]:
    """The README's fenced code blocks in ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_library_example_runs(capsys):
    (example,) = fenced("python")
    exec(compile(example, str(README), "exec"), {})
    assert "DecompositionSource.PAIRED_ZEROS_2N" in capsys.readouterr().out


def test_cli_chain_on_b5_runs(capsys, tmp_path, monkeypatch):
    # construct writes b5.json through the shell redirect; invariants and
    # verify read it.  Each line runs through the CLI's own entry point.
    monkeypatch.chdir(tmp_path)
    lines = "\n".join(fenced("sh")).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if "b5.json" in line]
    assert [argv[:2] for argv in commands] == [["blaschke", name] for name in ("construct", "invariants", "verify")]
    outputs = []
    for argv in commands:
        target = argv[argv.index(">") + 1] if ">" in argv else None
        assert run(argv[1 : argv.index(">") if target else None]) == 0
        out = capsys.readouterr().out
        if target:
            Path(target).write_text(out, encoding="utf-8")
        outputs.append(json.loads(out))
    assert len(outputs[0]["zeros"]) == 5
    assert [group["order"] for group in outputs[1]] == [5]
    assert outputs[2]["max_residual"] <= 1e-5
