"""tests/csv_drift.py on two small output trees."""

from csv_drift import drift, main


def _write(root, name, text):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_drift_reports_each_csv_of_either_tree(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        _write(root, "a/same.csv", "t,x\n0.0,1.5\n")
        _write(root, "notes.txt", f"{root.name}\n")     # not a CSV
    _write(old, "moved.csv", "t,x,tag\n0.0,2.0,p\n1.0,4.0,q\n")
    _write(new, "moved.csv", "t,x,tag\n0.0,2.5,p\n1.0,4.0,r\n")
    _write(old, "gone.csv", "t\n0\n")
    _write(new, "header.csv", "t,y\n0,1\n")
    _write(old, "header.csv", "t,x\n0,1\n")
    lines, same = drift(str(old), str(new))
    assert lines == [
        "a/same.csv: identical",
        "gone.csv: only in OLD",
        "header.csv: header [['t', 'x']] -> [['t', 'y']]",
        "moved.csv: column t: identical",
        "moved.csv: column x: max abs 0.5, max rel 0.2",
        "moved.csv: column tag: 1 cells differ",
    ]
    assert not same
    assert main([str(new), str(old)]) == 1
    assert "gone.csv: only in NEW" in capsys.readouterr().out.splitlines()
    assert main([str(old / "a"), str(new / "a")]) == 0
    assert capsys.readouterr().out == "same.csv: identical\n"
