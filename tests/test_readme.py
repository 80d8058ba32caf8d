import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pathfield
from pathfield import cli
from pathfield.sweep import SETTINGS, SweepSpec

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


def test_each_setting_has_one_key_one_flag_and_a_readme_entry():
    # Every SweepSpec field is the field of exactly one SETTINGS row, every
    # config key has one sweep flag and no flag sets anything else, and the
    # README names every key and flag.
    assert sorted(row[0] for row in SETTINGS.values()) == sorted(f.name for f in fields(SweepSpec))
    assert sorted(key for key, _ in cli.SWEEP_FLAGS.values()) == sorted(SETTINGS)
    readme = README.read_text()
    missing = [name for name in [*SETTINGS, *cli.SWEEP_FLAGS] if f"`{name}`" not in readme]
    assert not missing
