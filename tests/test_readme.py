"""The README's `## Library` example, its command lines and its text-file one-liners run as written."""

import pathlib
import re
import shlex
import shutil

from levygibbs.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(namespace["draws"]) == 1000
    assert namespace["band"].level == 0.9


def test_command_line_block_runs(tmp_path, monkeypatch):
    # Each `levy-gibbs` line of the `## Command line` block exits 0, run in order in one directory.
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1).replace("\\\n", " ")
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in argvs if argv[:1] == ["levy-gibbs"]]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


def test_text_one_liners_round_trip(tmp_path, monkeypatch):
    # A j=1 binary file, exported to text and converted back by the README's lines, comes back bit for bit.
    text = " ".join(README.read_text(encoding="utf-8").split())
    read, export, convert = (
        re.search(rf"`({start}.*?)`", text).group(1)
        for start in (r"s = read_increments\(", r"np\.savetxt\(", r"write_increments\(")
    )
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--j", "1", "--seed", "3", "--out", "inc.bin"]) == 0
    original = pathlib.Path("inc.bin").read_bytes()
    namespace = {}
    exec("import numpy as np\nfrom levygibbs import read_increments, write_increments\n" + read + "\n" + export, namespace)
    shutil.copy("inc.txt", "data.txt")
    exec(convert.replace("delta=...", "delta=s.scheme.delta"), namespace)
    assert pathlib.Path("inc.bin").read_bytes() == original
