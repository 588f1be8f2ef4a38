"""The golden outputs CI pins for the installed console script, checked here
in-process through `cli.main`: each command's stdout (and for `compact` its
--out trace too) hashes to the same sha256."""
import hashlib

import pytest

from rowpack.cli import main

RANGE_DIGESTS = {
    "irregular": "6ed5ad3e5af7fc54d673b0e232cdd388060387b2ad3df2ef6299dfeb6fa33d25",
    "milestones": "8f799eceefdce38dac263e9e05b971ce865ca2096c93779f816b0b6a6d907ab4",
    "aspect": "b661434a7f37fa719db12bf0b8f2099527e6f355d48ddcdb3d7d9b891996a604",
}

DIGESTS = {
    "table --which 1": "5f9436217b1d68f13634601c6e86fb73a4775c6013126e1a94b4647b144ddc45",
    "table --which 2": "e5093bc02c17831bc7d51b117ed79465d45467888774af704e659fbeb166b760",
    "render --n 49 --variant 1": "db0ef4efa216dfea1d3b63e4d667864ba9f3b47f999094f263d3390b1d426e3e",
    "theory": "e70b9ab4bc9b1c8f4a8421afb544d4c4a6d73fee12e2ce03c6f11b49e4eabe91",
}


def _stdout_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", list(RANGE_DIGESTS))
def test_range_command_output_is_pinned(capsys, command, jobs):
    argv = [command, "--to", "5000", "--jobs", str(jobs)]
    assert _stdout_digest(capsys, argv) == RANGE_DIGESTS[command]


@pytest.mark.parametrize("command", list(DIGESTS))
def test_command_output_is_pinned(capsys, command):
    assert _stdout_digest(capsys, command.split()) == DIGESTS[command]


def test_compact_report_and_trace_are_pinned(capsys, tmp_path):
    trace = tmp_path / "t.csv"
    assert main(["compact", "--n", "8", "--seeds", "10", "--out", str(trace)]) == 0
    report = capsys.readouterr().out
    digest = hashlib.sha256((report + trace.read_text()).encode()).hexdigest()
    assert digest == "37140087792f00d369a871079eb6cfad11a54b7dc690cf2fdf6c9122197deedf"
