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


def test_settable_lists_each_counted_value_by_name():
    def run(*args):
        return subprocess.run([sys.executable, str(ROOT / "tools" / "src_stats.py"), *args],
                              capture_output=True, text=True, check=True, timeout=60).stdout

    counts = {line.split()[0]: int(line.split()[4]) for line in run().splitlines()[1:]}
    listed = [line.split() for line in run("--settable").splitlines()]
    assert all(len(fields) == 3 for fields in listed)
    assert len({tuple(fields) for fields in listed}) == len(listed)
    for module, settable in counts.items():
        if module != "total":
            assert sum(fields[0] == module for fields in listed) == settable, module
    assert len(listed) == counts["total"]
    assert ["training.py", "TrainConfig", "learning_rate"] in listed
    assert ["training.py", "DcaeNet.__init__", "dtype"] in listed
