"""What `import rowpack` loads: the exact search runs on the standard library
alone, and numpy loads only with the code that computes with it (the
compactor, and the overlap kernel behind render and is_valid).

What a module loads is checked in a fresh interpreter, as the test
process itself has numpy and the compactor loaded.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rowpack
from rowpack.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The exact commands, each run at --jobs 1 and 2 where it takes --jobs.
EXACT_ARGV = [
    ["search", "--n", "8562"],
    *(argv + ["--jobs", jobs] for jobs in ("1", "2") for argv in (
        ["range", "--from", "1", "--to", "300"],
        ["irregular", "--to", "300"],
        ["milestones", "--to", "300"],
        ["aspect", "--to", "300"],
    )),
    ["table", "--which", "1"],
    ["table", "--which", "2"],
    ["theory"],
]


def run_python(script: str) -> str:
    """stdout of `script` in a fresh interpreter that imports rowpack from src."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["rowpack", "rowpack.cli"])
def test_import_loads_neither_numpy_nor_the_compactor(module):
    loaded = run_python(f"""
        import sys
        import {module}
        print(sorted({{"numpy", "rowpack.compactor"}} & set(sys.modules)))
    """)
    assert loaded == "[]\n"


def test_exact_path_runs_with_numpy_blocked(capsys):
    # with sys.modules["numpy"] = None, any numpy import raises ImportError
    script = f"""
        import sys
        sys.modules["numpy"] = None
        import contextlib, io, json, os, tempfile
        import rowpack
        from rowpack import cli, search, tables, theory

        assert rowpack.best(8562).min_area.p == 674
        results = search.scan_range(1, 300)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.jsonl")
            search.write_results(results, path)
            assert search.read_results(path) == results
        assert search.milestones(300, results).even_h_holed is None
        assert tables.reproduce(1).ok and tables.reproduce(2).ok
        assert theory.convergents(3)[-1].N_k == 2910

        outputs = []
        for argv in {EXACT_ARGV!r}:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            outputs.append((code, out.getvalue(), err.getvalue()))
        print(json.dumps(outputs))
    """
    outputs = [tuple(o) for o in json.loads(run_python(script))]
    assert all(code == 0 for code, _, _ in outputs)
    for argv, blocked in zip(EXACT_ARGV, outputs):  # the bytes this process gives
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == blocked, argv
    assert json.loads(outputs[0][1])["area"]["p"] == 674


def test_lazy_exports_resolve():
    for name in rowpack.__all__:
        assert getattr(rowpack, name) is not None, name
    assert rowpack.compact is rowpack.compactor.compact
    assert rowpack.CompactorParams is rowpack.compactor.CompactorParams
    star: dict = {}
    exec("from rowpack import *", star)
    assert set(rowpack.__all__) <= set(star)
    assert star["best_of"] is rowpack.compactor.best_of
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        rowpack.no_such_name


def test_render_and_compact_load_numpy_on_first_use():
    loaded = run_python("""
        import contextlib, io, sys
        from rowpack.cli import main

        def loaded():
            return sorted({"numpy", "rowpack.compactor"} & set(sys.modules))

        marks = [loaded()]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["render", "--n", "25"]) == 0
        assert out.getvalue().count("<circle") == 25
        marks.append(loaded())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compact", "--n", "3", "--seed", "1"]) == 0
        marks.append(loaded())
        import rowpack
        assert rowpack.compact is rowpack.compactor.compact
        print(marks)
    """)
    assert loaded == "[[], ['numpy'], ['numpy', 'rowpack.compactor']]\n"
