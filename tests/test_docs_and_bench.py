"""The benchmark's smoke run and the README's library example, as tests.

`python3 bench/run.py --smoke` drives every benchmark workload through the
CLI at tiny sizes and checks the result schema, so a package change that
breaks how the benchmark calls the CLI fails here too.  The README's
"Library example" block runs as written, so a renamed or re-signed public
name it uses fails here too.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


def test_readme_library_example(capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1] == "0.0"    # the image lies inside the text's cone, as the comment says
