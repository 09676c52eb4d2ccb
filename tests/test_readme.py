"""The README's examples run as written and print what it shows."""

import re
import shlex
from pathlib import Path

from gbsr import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# the graph files the README's CLI examples name: single loops (a, b)
LOOPS = {"bs16.gbs": (1, 6), "bs26.gbs": (2, 6), "bs23.gbs": (2, 3)}


def _blocks(lang):
    return re.findall(r"^```%s\n(.*?)^```" % lang, README, re.S | re.M)


def _cli_examples():
    """(argv, expected stdout) for every `$ gbsr` line on a known file,
    the output being the lines up to the next `$` line or block end."""
    out = []
    for block in _blocks(""):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ gbsr "):
                continue
            argv = shlex.split(line[len("$ gbsr "):])
            if argv[1] not in LOOPS:
                continue
            end = i + 1
            while end < len(lines) and not lines[end].startswith("$ "):
                end += 1
            out.append((argv, "".join(text + "\n" for text in lines[i + 1:end])))
    return out


def test_python_example_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == ["False", "no 2"]
    assert printed[-1] == "1"


def test_cli_examples_print_what_the_readme_shows(tmp_path, capsys):
    examples = _cli_examples()
    assert [argv[0] for argv, _ in examples] == ["check", "explore", "length", "export-dot"]
    for argv, expected in examples:
        a, b = LOOPS[argv[1]]
        path = tmp_path / argv[1]
        path.write_text("vertex v\nedge c v %d %d v\n" % (a, b), encoding="utf-8")
        assert cli.main([argv[0], str(path)] + argv[2:]) == 0, argv
        assert capsys.readouterr().out == expected, argv
