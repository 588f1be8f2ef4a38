import contextlib
import json
import multiprocessing
import os
import pickle
import resource
import shlex
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from rowpack import search, theory
from rowpack.cli import build_parser, main
from rowpack.packings import ClassConfig
from rowpack.search import SearchResult, scan_range, write_results


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_search_49(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "49")
    assert code == 0
    blob = json.loads(out)
    assert blob["class"] == "may_hole"
    assert blob["width"] == 34


def test_search_1(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "1")
    blob = json.loads(out)
    assert code == 0
    assert blob["area"] == {"p": 4, "q": 0, "float": 4.0}


def test_search_79(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "79")
    assert json.loads(out)["class"] == "must_hole"


def test_range_summary_and_file(tmp_path, capsys):
    out_path = tmp_path / "scan.jsonl"
    code, out, _ = run_cli(
        capsys, "range", "--from", "1", "--to", "10", "--jobs", "1", "--out", str(out_path)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["irregular"] == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 10
    assert json.loads(lines[0])["n"] == 1


def test_range_parallel_bytes_match_serial(tmp_path, capsys):
    # four blocks of n, each with irregular n: workers send back finished
    # lines and classes, and the parent writes and counts them in n order
    from rowpack.search import BLOCK

    hi = str(40 + 3 * BLOCK + BLOCK // 2)
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    _, sum1, _ = run_cli(capsys, "range", "--from", "40", "--to", hi, "--jobs", "1",
                         "--out", str(serial))
    _, sum2, _ = run_cli(capsys, "range", "--from", "40", "--to", hi, "--jobs", "3",
                         "--out", str(parallel))
    assert serial.read_bytes() == parallel.read_bytes()
    assert sum1 == sum2
    # streamed to stdout, the lines are the file's bytes, in the same order
    _, out1, err1 = run_cli(capsys, "range", "--from", "40", "--to", hi, "--jobs", "1")
    _, out2, err2 = run_cli(capsys, "range", "--from", "40", "--to", hi, "--jobs", "2")
    assert out1 == out2 == serial.read_text()
    assert err1 == err2 == sum1
    classes = [json.loads(line)["class"] for line in out1.splitlines()]
    assert json.loads(err1)["irregular"] == sum(c != "regular" for c in classes) > 0


def test_n_past_float_range_is_one_line_error(capsys):
    # past about 1.8e308 an area has no float, so the sieve's float filter
    # raises OverflowError: one error line, not a traceback
    huge = str(10**309)
    for argv in (["search", "--n", huge], ["range", "--from", huge, "--to", huge, "--jobs", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: int too large to convert to float\n"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1_000_000_000, 1_000_000_000))


def _run_capped(argv):
    """`python -m rowpack argv` under a 1 GB address-space cap."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "rowpack", *argv],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=_cap_address_space)


@pytest.mark.parametrize("argv", [["aspect"], ["range", "--from", "1"]], ids=lambda a: a[0])
def test_absurd_range_is_one_line_error_in_bounded_memory(argv):
    # a range of more than 2**63 blocks fails before any work, without
    # building anything the size of the range: run under a 1 GB cap, so a
    # regression fails with MemoryError instead of exhausting the machine
    proc = _run_capped([*argv, "--to", str(10**309), "--jobs", "1"])
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["render", "--n", str(10**12)],
                                  ["compact", "--n", str(10**12), "--seed", "0"]],
                         ids=lambda a: a[0])
def test_failed_allocation_is_one_line_error(argv):
    # render's coordinates and compact's random start ask for terabytes at
    # n = 10**12: under a 1 GB cap the MemoryError is one error line, exit 2.
    # Never run these uncapped.
    proc = _run_capped(argv)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_range_empty_errors(capsys):
    code, _, err = run_cli(capsys, "range", "--from", "9", "--to", "3", "--jobs", "1")
    assert code == 2
    assert "error" in err


def test_table_reports(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert {e["n"] for e in blob["errata"]} == {11, 12, 14}

    code, out, _ = run_cli(capsys, "table", "--which", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["matched"] == 158


def test_irregular_list(capsys):
    code, out, _ = run_cli(capsys, "irregular", "--to", "120", "--jobs", "1")
    assert code == 0
    assert out == "49\n61\n79\n97\n107\n"
    # two blocks of n over two processes: the same lines in the same order
    assert run_cli(capsys, "irregular", "--to", "120", "--jobs", "2") == (0, out, "")
    code, out, _ = run_cli(capsys, "irregular", "--from", "62", "--to", "97", "--jobs", "1")
    assert (code, out) == (0, "79\n97\n")


def test_irregular_bad_range_is_one_line_error(capsys):
    for lo, hi in (("10", "5"), ("0", "5")):
        code, out, err = run_cli(capsys, "irregular", "--from", lo, "--to", hi, "--jobs", "1")
        assert (code, out) == (2, "")
        assert err == "error: need 1 <= n_lo <= n_hi\n"


def test_milestones(capsys):
    code, out, _ = run_cli(capsys, "milestones", "--to", "340", "--jobs", "1")
    blob = json.loads(out)
    assert code == 0
    assert blob["even_h_holed"] == 317


def test_theory(capsys):
    code, out, _ = run_cli(capsys, "theory", "--kmax", "3")
    blob = json.loads(out)
    assert code == 0
    assert blob["smallest_two_row_m"] == 7
    assert blob["convergents"][-1]["N"] == 2910
    assert blob["densities"]["hex"] == pytest.approx(0.90689968)


def test_theory_kmax_past_the_int_print_limit_fails_fast(capsys):
    # N_559 has 640 digits and N_560 641: under a 640-digit limit on int-to-str,
    # any larger --kmax stops at k = 560 with one error line, rather than
    # building every entry first; a limit of 0 prints them all, as before
    def timeout(signum, frame):
        raise AssertionError("theory --kmax ran on past the first unprintable N_k")

    limit = sys.get_int_max_str_digits()
    handler = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)  # the commands take milliseconds
    try:
        sys.set_int_max_str_digits(640)
        printed = run_cli(capsys, "theory", "--kmax", "559")
        failed = [run_cli(capsys, "theory", "--kmax", k) for k in ("560", "100000")]
        sys.set_int_max_str_digits(0)
        unlimited = run_cli(capsys, "theory", "--kmax", "560")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        sys.set_int_max_str_digits(limit)
    assert printed[0] == 0 and len(str(json.loads(printed[1])["convergents"][-1]["N"])) == 640
    for (code, out, err), k in zip(failed, ("560", "100000")):
        assert (code, out) == (2, "")
        assert err == (f"error: --kmax {k}: N_560 has more than 640 digits, which this "
                       "interpreter does not print (sys.set_int_max_str_digits); "
                       "the largest k that prints is 559\n")
    assert unlimited[0] == 0 and len(json.loads(unlimited[1])["convergents"]) == 560


def test_dmax_only_on_commands_that_search(capsys):
    # no command takes a hole cap: every search is exact over all hole counts
    for argv in (
        ["search", "--n", "49"],
        ["range", "--from", "1", "--to", "3"],
        ["table", "--which", "1"],
        ["irregular", "--to", "50"],
        ["milestones", "--to", "50"],
        ["aspect", "--to", "50"],
        ["theory"],
        ["compact", "--n", "2", "--seed", "1"],
        ["render", "--n", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--dmax", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dmax" in capsys.readouterr().err


def test_readme_cli_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.strip()]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "rowpack", line
        parser.parse_args(argv[1:])  # exits 2 on a flag the CLI does not take


def test_range_out_bytes_equal_write_results(tmp_path, capsys):
    cli_path, lib_path = tmp_path / "cli.jsonl", tmp_path / "lib.jsonl"
    code, _, _ = run_cli(
        capsys, "range", "--from", "40", "--to", "130", "--jobs", "1", "--out", str(cli_path)
    )
    assert code == 0
    write_results(scan_range(40, 130), lib_path)
    assert cli_path.read_bytes() == lib_path.read_bytes()


def test_aspect_csv(tmp_path, capsys):
    out_path = tmp_path / "aspect.csv"
    code, _, _ = run_cli(capsys, "aspect", "--to", "30", "--jobs", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,aspect"
    assert lines[-1].startswith("limit,")


def test_render_svg(tmp_path, capsys):
    out_path = tmp_path / "p.svg"
    code, _, _ = run_cli(capsys, "render", "--n", "25", "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.count("<circle") == 25


def test_render_variant_out_of_range(capsys):
    code, _, err = run_cli(capsys, "render", "--n", "12", "--variant", "9")
    assert code == 2
    assert "variant" in err


def test_compact_requires_seed(capsys):
    # exactly one of --seed and --seeds: neither, or both, is a one-line error
    for argv in ([], ["--seed", "1", "--seeds", "3"]):
        code, out, err = run_cli(capsys, "compact", "--n", "2", *argv)
        assert (code, out) == (2, "")
        assert err == "error: compact requires exactly one of --seed and --seeds\n"


def test_compact_negative_seed_is_one_line_error(capsys):
    # rejected by CompactorParams before any search, not inside numpy
    code, out, err = run_cli(capsys, "compact", "--n", "3", "--seed", "-1")
    assert (code, out, err) == (2, "", "error: seed must be >= 0\n")


@pytest.mark.parametrize("argv", [
    ["search", "--n", "5"],
    ["range", "--from", "1", "--to", "3", "--jobs", "1"],
    ["table", "--which", "1"],
    ["irregular", "--to", "50", "--jobs", "1"],
    ["milestones", "--to", "50", "--jobs", "1"],
    ["aspect", "--to", "50", "--jobs", "1"],
    ["theory"],
    ["compact", "--n", "2", "--seed", "1"],
    ["render", "--n", "5"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_one_line_error(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        pytest.fail("the command ran before --out was checked")

    monkeypatch.setattr(search, "iter_range", no_work)
    monkeypatch.setattr(search, "best", no_work)
    monkeypatch.setattr(theory, "waste_constants", no_work)  # theory runs no search
    missing = tmp_path / "missing" / "out"
    dangling = tmp_path / "dangling"  # a link into the missing directory
    dangling.symlink_to(missing)
    loop = tmp_path / "loop"  # a link to itself
    loop.symlink_to(loop)
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    is_dir = "[Errno 21] Is a directory"
    for path, want in ((missing, "[Errno 2] No such file or directory"),
                       (dangling, "[Errno 2] No such file or directory"),
                       (loop, "[Errno 40] Too many levels of symbolic links"),
                       (f"{tmp_path / 'missing'}/", is_dir),
                       (f"{afile}/", is_dir),
                       (tmp_path / ("x" * 300), "[Errno 36] File name too long")):
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
        assert err == f"error: {want}: {str(path)!r}\n"
        assert out == ""  # checked before the work: compact prints its report first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "dangling", "loop"]
    assert afile.read_text() == "keep\n"


def test_failed_command_leaves_existing_out_unchanged(tmp_path, capsys):
    out_path = tmp_path / "f"
    out_path.write_text("keep\n")
    code, out, err = run_cli(capsys, "render", "--n", "5", "--variant", "9", "--out", str(out_path))
    assert (code, out, err) == (2, "", "error: variant must be in 0..0\n")
    assert out_path.read_text() == "keep\n"
    code, out, err = run_cli(capsys, "search", "--n", "5", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    # a stream that fails in its first block fails before --out is opened
    huge = str(10**309)
    for argv in (["range", "--from", huge], ["irregular", "--from", huge]):
        code, out, err = run_cli(capsys, *argv, "--to", huge, "--jobs", "1", "--out", str(out_path))
        assert (code, out) == (2, ""), argv
        assert err == "error: int too large to convert to float\n"
        assert out_path.read_text() == "keep\n", argv
    # a failed command removes a file it created: a new path is left absent,
    # and a dangling link into an existing directory is left dangling
    fresh = tmp_path / "fresh.json"
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "target")
    for path in (fresh, link):
        code, out, err = run_cli(capsys, "search", "--n", "0", "--out", str(path))
        assert (code, out, err) == (2, "", "error: n must be >= 1\n")
    assert not fresh.exists() and not (tmp_path / "target").exists()
    assert link.is_symlink()
    assert run_cli(capsys, "search", "--n", "5", "--out", os.devnull)[:2] == (0, "")
    # a command that succeeds replaces the existing file's bytes
    assert run_cli(capsys, "search", "--n", "5", "--out", str(out_path))[:2] == (0, "")
    assert out_path.read_text() == run_cli(capsys, "search", "--n", "5")[1]


def test_out_fifo_is_opened_once(tmp_path, capsys, monkeypatch):
    # --out is opened once, before the work, so one reader of a named FIFO
    # sees end of file only after the whole output
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    best = search.best

    def waiting_best(n):
        reader.join(0.2)  # a reader sent end of file early is done by now
        return best(n)

    def timeout(signum, frame):
        raise AssertionError("the command blocked on --out: its reader had seen end of file")

    monkeypatch.setattr(search, "best", waiting_best)
    handler = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 10)  # the command takes about 0.2 s
    try:
        code, out, err = run_cli(capsys, "search", "--n", "5", "--out", str(fifo))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if reader.is_alive():  # still waiting for a writer: let it go
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(5)
    assert (code, out, err) == (0, "", "")
    assert got == [run_cli(capsys, "search", "--n", "5")[1]]


def test_compact_single_run(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "compact", "--n", "2", "--seed", "5", "--out", str(trace))
    assert code == 0
    blob = json.loads(out)
    assert blob["seed"] == 5 and blob["density"] > 0.3
    assert trace.read_text().splitlines()[0] == "move,width,height,density"


def test_compact_json_packing(tmp_path, capsys):
    out_path = tmp_path / "packing.json"
    code, _, _ = run_cli(
        capsys, "compact", "--n", "3", "--seed", "1", "--format", "json", "--out", str(out_path)
    )
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert len(blob["centers"]) == 3


def test_jobs_below_one_rejected(capsys):
    for jobs in ("0", "-3"):
        for argv in (["range", "--from", "1"], ["irregular"], ["milestones"], ["aspect"]):
            code, out, err = run_cli(capsys, *argv, "--to", "3", "--jobs", jobs)
            assert code == 2, argv
            assert out == ""
            assert err == f"error: jobs must be >= 1, got {jobs}\n"


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the size and the imap
    chunksize asked for, starts nothing."""

    sizes: list[int] = []
    chunksizes: list[int] = []

    def __init__(self, processes):
        RecordingPool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        RecordingPool.chunksizes.append(chunksize)
        return map(fn, items)


def test_pool_capped_by_span_and_cores(capsys, monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "chunksizes", [])
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    code, out, _ = run_cli(capsys, "range", "--from", "1", "--to", "2", "--jobs", "3")
    assert code == 0
    assert [json.loads(line)["n"] for line in out.splitlines()] == [1, 2]
    assert RecordingPool.sizes == []  # one block: serial, no pool

    four = 3 * search.BLOCK + 4  # four blocks, the last of 4 n
    code, out, _ = run_cli(capsys, "range", "--from", "1", "--to", str(four), "--jobs", "3")
    assert code == 0
    assert [json.loads(line)["n"] for line in out.splitlines()] == list(range(1, four + 1))
    assert RecordingPool.sizes == [3]  # four blocks, three jobs
    assert RecordingPool.chunksizes == [search.TASK_BLOCKS]

    # 100 blocks over two jobs: tasks of the same size, lines still in n order
    hundred = 100 * search.BLOCK
    code, out, _ = run_cli(capsys, "range", "--from", "1", "--to", str(hundred), "--jobs", "2")
    assert code == 0
    assert [json.loads(line)["n"] for line in out.splitlines()] == list(range(1, hundred + 1))
    assert RecordingPool.sizes == [3, 2]
    assert RecordingPool.chunksizes == [search.TASK_BLOCKS] * 2

    # a task's size does not grow with the range: the first n of 10000
    # blocks searches only the first block, as the stand-in's imap is lazy
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    assert next(search.iter_range(1, 10_000 * search.BLOCK, jobs=2)).n == 1
    assert RecordingPool.sizes == [3, 2, 2]
    assert RecordingPool.chunksizes == [search.TASK_BLOCKS] * 3

    monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
    code, _, _ = run_cli(capsys, "range", "--from", "1", "--to", str(four), "--jobs", "3")
    assert code == 0
    assert RecordingPool.sizes == [3, 2, 2]  # one core: serial, no pool


class ReturningPool(RecordingPool):
    """RecordingPool that sends the task function through pickle, as a pool
    does, and records every item a task returns."""

    returned: list = []

    def imap(self, fn, items, chunksize=1):
        for block in super().imap(pickle.loads(pickle.dumps(fn)), items, chunksize):
            ReturningPool.returned.extend(block)
            yield block


@pytest.mark.parametrize("argv", [
    ["range", "--from", "1"], ["irregular"], ["milestones"], ["aspect"],
], ids=lambda argv: argv[0])
def test_workers_send_back_views_not_search_results(capsys, monkeypatch, argv):
    monkeypatch.setattr(multiprocessing, "Pool", ReturningPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "chunksizes", [])
    monkeypatch.setattr(ReturningPool, "returned", [])
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    hi = 3 * search.BLOCK + 7  # four blocks
    serial = run_cli(capsys, *argv, "--to", str(hi), "--jobs", "1")
    assert RecordingPool.sizes == []
    assert run_cli(capsys, *argv, "--to", str(hi), "--jobs", "2") == serial
    assert serial[0] == 0 and RecordingPool.sizes == [2]
    assert len(ReturningPool.returned) == hi  # one item per n

    def leaves(item):
        return [x for part in item for x in leaves(part)] if isinstance(item, tuple) else [item]

    shipped = [x for item in ReturningPool.returned for x in leaves(item)]
    assert not [x for x in shipped if isinstance(x, (SearchResult, ClassConfig))]
