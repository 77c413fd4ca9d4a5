import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("fingerprints", os.path.join(ROOT, "tools", "fingerprints.py"))
fingerprints = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprints)


def _write(directory, files):
    os.makedirs(directory)
    for name, data in files.items():
        with open(os.path.join(directory, name), "wb") as f:
            f.write(data)


def test_common_prefix():
    assert fingerprints.common_prefix(b"", b"") == 0
    assert fingerprints.common_prefix(b"abc", b"abcdef") == 3
    assert fingerprints.common_prefix(b"abXd", b"abYd") == 2
    assert fingerprints.common_prefix(b"x", b"y") == 0


def test_compare_reports_each_file_of_either_side(tmp_path):
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    _write(parent, {"actor.bin": b"same bytes", "q1_target.bin": b"params" + b"adam", "meta.txt": b"k 1\n", "gone.bin": b"x"})
    _write(change, {"actor.bin": b"same bytes", "q1_target.bin": b"params", "meta.txt": b"k 2\n", "new.bin": b"y"})
    lines = fingerprints.compare(parent, change)
    by_name = {line.split()[0]: line for line in lines}
    assert [line.split()[0] for line in lines] == ["actor.bin", "gone.bin", "meta.txt", "new.bin", "q1_target.bin"]
    assert by_name["actor.bin"].split()[1:] == ["same", fingerprints._sha(b"same bytes")]
    assert "differs" in by_name["q1_target.bin"] and by_name["q1_target.bin"].endswith("common prefix 6 B")
    assert "(10 B)" in by_name["q1_target.bin"] and "(6 B)" in by_name["q1_target.bin"]
    assert by_name["meta.txt"].endswith("common prefix 2 B")
    assert "change - (- B)" in by_name["gone.bin"] and "common prefix" not in by_name["gone.bin"]
    assert "parent - (- B)" in by_name["new.bin"]
