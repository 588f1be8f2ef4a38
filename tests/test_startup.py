"""What `import rowpack` and each command load: the exact search runs on the
standard library alone, without multiprocessing, which only a --jobs pool
loads; numpy loads only with the code that computes with it (the
compactor, and the overlap kernel behind render and is_valid); tables,
theory and render load with the commands that run them.

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

# loaded by neither `import rowpack` nor `import rowpack.cli`
DEFERRED = ["multiprocessing", "numpy", "rowpack.compactor", "rowpack.render",
            "rowpack.tables", "rowpack.theory"]


def run_python(script: str) -> str:
    """stdout of `script` in a fresh interpreter that imports rowpack from src."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["rowpack", "rowpack.cli"])
def test_import_loads_only_the_search(module):
    loaded = run_python(f"""
        import sys
        import {module}
        print(sorted(set({DEFERRED!r}) & set(sys.modules)))
    """)
    assert loaded == "[]\n"


def test_each_command_loads_only_what_it_runs():
    loaded = run_python(f"""
        import contextlib, io, sys
        from rowpack.cli import main

        seen = set(sys.modules)
        for argv in [
            ["search", "--n", "8562"],
            ["range", "--from", "1", "--to", "300", "--jobs", "1"],
            ["irregular", "--to", "300", "--jobs", "1"],
            ["milestones", "--to", "300", "--jobs", "1"],
            ["table", "--which", "1"],
            ["theory"],
            ["aspect", "--to", "300", "--jobs", "1"],
            ["render", "--n", "25"],
            ["compact", "--n", "3", "--seed", "1"],
        ]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0, argv
            if argv[0] == "render":
                assert out.getvalue().count("<circle") == 25
            print(argv[0], sorted(set({DEFERRED!r}) & set(sys.modules) - seen))
            seen |= set(sys.modules)
        import rowpack
        assert rowpack.compact is rowpack.compactor.compact
    """)
    assert loaded.splitlines() == [
        "search []", "range []", "irregular []", "milestones []",
        "table ['rowpack.tables']", "theory ['rowpack.theory']",
        "aspect ['rowpack.render']", "render ['numpy']", "compact ['rowpack.compactor']",
    ]


def test_one_process_commands_run_with_multiprocessing_blocked(capsys):
    # with sys.modules["multiprocessing"] = None, any multiprocessing import raises ImportError
    argvs = [["search", "--n", "8562"], ["range", "--from", "1", "--to", "300", "--jobs", "1"]]
    script = f"""
        import sys
        sys.modules["multiprocessing"] = None
        import contextlib, io, json
        from rowpack.cli import main

        outputs = []
        for argv in {argvs!r}:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            outputs.append((code, out.getvalue(), err.getvalue()))
        print(json.dumps(outputs))
    """
    outputs = [tuple(o) for o in json.loads(run_python(script))]
    for argv, blocked in zip(argvs, outputs):  # the bytes this process gives
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == blocked, argv
    assert outputs[0][0] == 0 and json.loads(outputs[0][1])["area"]["p"] == 674
    assert outputs[1][0] == 0 and outputs[1][1].count("\n") == 300


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
        assert vars(rowpack)[name] is getattr(rowpack, name), name  # cached as a plain global
    assert set(dir(rowpack)) >= {*rowpack.__all__, "compactor", "render", "theory"}
    assert rowpack.compact is rowpack.compactor.compact
    assert rowpack.CompactorParams is rowpack.compactor.CompactorParams
    assert rowpack.to_svg is rowpack.render.to_svg
    assert rowpack.convergents is rowpack.theory.convergents
    star: dict = {}
    exec("from rowpack import *", star)
    assert set(rowpack.__all__) <= set(star)
    assert star["best_of"] is rowpack.compactor.best_of
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        rowpack.no_such_name
    # in a fresh interpreter: the deferred names are in dir() before their
    # first access and in the module's globals after it
    before, after, listed = json.loads(run_python("""
        import json, rowpack
        deferred = set(rowpack.__all__) - set(vars(rowpack))
        listed = deferred & set(dir(rowpack))
        rowpack.to_svg, rowpack.waste_constants, rowpack.compact
        print(json.dumps([sorted(deferred), sorted(deferred - set(vars(rowpack))), sorted(listed)]))
    """))
    assert before == listed == sorted([
        "CompactorParams", "CompactorRun", "best_of", "compact", "random_start",
        "ConvergentEntry", "WasteConstants", "convergents", "reference_densities",
        "smallest_two_row_m", "two_row_beats_square", "verify_convergent_regularity",
        "waste_constants",
        "aspect_line", "aspect_scatter_csv", "to_svg",
    ])
    assert after == sorted(set(before) - {"to_svg", "waste_constants", "compact"})
