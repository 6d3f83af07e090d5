"""The README's library tour and CLI instance examples run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from foambounds.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

SHARED_KEYS = {"command", "input", "h", "n_points", "radii", "theta_v_pi_units", "formula"}
REPORT_KEYS = {
    "eva": SHARED_KEYS | {"eva", "convexity_certified"},
    "eva-exact": SHARED_KEYS | {
        "evA", "method", "subset", "subsets_scored", "subsets_total", "evA_over_theta_v_pi",
    },
    "eva-greedy": SHARED_KEYS | {"evA", "method", "subset", "notes", "evA_over_theta_v_pi"},
}


def _blocks(lang: str, section: str) -> list[str]:
    """The fenced `lang` blocks in the README section under `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, flags=re.S)


def test_library_quick_tour_runs(capsys):
    (code,) = _blocks("python", "Library quick tour")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("command", sorted(REPORT_KEYS))
def test_cli_runs_on_readme_instances(command, tmp_path, capsys):
    examples = _blocks("json", "CLI")
    assert len(examples) == 2
    for i, text in enumerate(examples):
        path = tmp_path / f"instance{i}.json"
        path.write_text(text, encoding="utf-8")
        assert main([command, "--input", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == REPORT_KEYS[command]
        assert report["command"] == command
        assert report["n_points"] == 3


def test_cli_examples_parse():
    # Every documented command and flag exists, and no removed flag lingers.
    (block,) = _blocks("sh", "CLI")
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 10
    for argv in commands:
        assert argv[0] == "foambounds"
        build_parser().parse_args(argv[1:])
