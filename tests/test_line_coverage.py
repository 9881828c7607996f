"""tests/line_coverage.py on a toy module."""

import importlib.util
import sys
import threading

from line_coverage import report, run_traced

TOY = '''import threading


class Base:
    def hook(self):
        """An interface stub: skipped."""
        raise NotImplementedError


def branch(x):
    y = (x +
         1)
    if y > 100:
        return "big"
    return [i for i in range(y)]


def in_thread():
    out = []
    worker = threading.Thread(target=lambda: out.append(leaf()))
    worker.start()
    worker.join(timeout=10)
    return out


def leaf():
    return 1


def never():
    try:
        a = 1
    except ValueError:
        a = 2
    return a
'''


def test_report_names_each_statement_that_never_ran(tmp_path):
    (tmp_path / "toy.py").write_text(TOY)
    loader = importlib.util.spec_from_file_location("toy_line_coverage",
                                                    tmp_path / "toy.py")
    toy = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(toy)
    before = sys.gettrace(), threading.gettrace()
    result, ran = run_traced(tmp_path,
                             lambda: (toy.branch(3), toy.in_thread()))
    assert result == ([0, 1, 2, 3], [1])
    assert (sys.gettrace(), threading.gettrace()) == before
    # the stub, the module and class bodies and the continuation line of a
    # statement that ran are not listed; the thread's lines ran
    assert report(tmp_path, ran, tmp_path) == [
        'toy.py:14: return "big"',
        "toy.py:31: try:",
        "toy.py:32: a = 1",
        "toy.py:34: a = 2",
        "toy.py:35: return a",
    ]
