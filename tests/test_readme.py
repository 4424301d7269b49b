"""The README's examples run as written, with fewer epochs."""

import re
import shlex
from pathlib import Path

from tstransfer import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(section: str) -> list[str]:
    """The fenced code blocks of one `## ` section of the README."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```\w*\n(.*?)```", body, flags=re.DOTALL)


def shortened(text: str, old: str, new: str) -> str:
    assert old in text, f"README example no longer says {old!r}"
    return text.replace(old, new)


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    toy, commands = code_blocks("CLI walkthrough")
    script = re.search(r"<<'EOF'\n(.*?)\nEOF", toy, flags=re.DOTALL).group(1)
    exec(compile(script, "README toy archive", "exec"), {})
    assert sorted(p.name for p in (tmp_path / "toydata").iterdir()) == [
        f"{name}_{split}.tsv" for name in "ABC" for split in ("TEST", "TRAIN")
    ]

    (sketch,) = code_blocks("Library sketch")
    sketch = shortened(sketch, "epochs=100", "epochs=2")
    exec(compile(sketch, "README library sketch", "exec"), {})

    lines = [line for line in commands.splitlines() if line.startswith("tstransfer ")]
    assert [shlex.split(line)[1] for line in lines] == [
        "train", "transfer", "similarity", "rank", "matrix", "report"
    ]
    for line in lines:
        if shlex.split(line)[1] in ("train", "transfer", "matrix"):
            line = shortened(line, "--epochs 100", "--epochs 2")
        assert cli.main(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "report.json").is_file()
