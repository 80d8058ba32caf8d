import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pathfield
from pathfield import cli

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs():
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    src = str(Path(pathfield.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_examples_parse():
    blocks = re.findall(r"```\n(.*?)```", README.read_text(), re.DOTALL)
    (examples,) = [block for block in blocks if block.startswith("pathfield ")]
    lines = [shlex.split(line, comments=True) for line in examples.splitlines()]
    assert len(lines) >= 6 and all(argv[0] == "pathfield" for argv in lines)
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])
