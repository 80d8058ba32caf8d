import os
import re
import subprocess
import sys
from pathlib import Path

import pathfield

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs():
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    src = str(Path(pathfield.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
