import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_lists_every_module_and_a_total():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "src_stats.py")],
                         capture_output=True, text=True, check=True, timeout=60)
    rows = {line.split()[0]: line.split()[1:] for line in run.stdout.splitlines()[1:]}
    modules = sorted(p.name for p in (ROOT / "src" / "bitmotor").glob("*.py"))
    assert sorted(rows) == sorted(modules + ["total"])
    for name, values in rows.items():
        lines, code, doc, _settable = map(int, values)
        assert code + doc <= lines, name
