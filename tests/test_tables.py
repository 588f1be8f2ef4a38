from naive_oracle import FULL, SHORT_OFFSET, _area, _less
from rowpack import tables
from rowpack.search import best


def test_fixture_rows_close_under_circle_count():
    """Every non-erratum printed row satisfies the circle-count identity."""
    legal_hminus = lambda h: {0, h // 2} | ({h // 2 + 1} if h % 2 else set())
    for n, rows in tables.TABLE1.items():
        if n in tables.TABLE1_ERRATA:
            continue
        for w, h, hm, s in rows:
            assert w * (h + s) - hm == n, f"table1 n={n}"
            if h:
                assert hm in legal_hminus(h)
    for n, (w, h, hm) in tables.TABLE2.items():
        if n in tables.TABLE2_ERRATA:
            continue
        d = 1 if tables.TABLE2_STARS.get(n) == 2 else 0
        assert w * h - hm - d == n, f"table2 n={n}"
        assert hm in legal_hminus(h)


def test_fixture_errata_are_provably_inconsistent_or_suboptimal():
    # 12 and 14: the printed row fails the circle-count identity
    w, h, hm, s = tables.TABLE1_ERRATA[12].printed
    assert w * (h + s) - hm != 12
    w, h, hm, s = tables.TABLE1_ERRATA[14].printed
    assert w * (h + s) - hm != 14
    # 11: printed row holds 11 circles but in a strictly larger rectangle
    w, h, hm, s = tables.TABLE1_ERRATA[11].printed
    assert w * (h + s) - hm == 11
    printed_area = _area(w, h, FULL if hm == 0 else SHORT_OFFSET, s)
    w, h, hm, s = tables.TABLE1_ERRATA[11].corrected
    corrected_area = _area(w, h, FULL if hm == 0 else SHORT_OFFSET, s)
    assert _less(corrected_area, printed_area)
    # 110: no hole count can reconcile the printed parameters
    w, h, hm = tables.TABLE2_ERRATA[110].printed
    assert all(w * h - hm - d != 110 for d in range(0, 9))
    # 194: printed h_minus is not legal for h = 9
    _, h, hm = tables.TABLE2_ERRATA[194].printed
    assert hm not in {0, h // 2, h // 2 + 1}


def test_reproduce_table1():
    report = tables.reproduce(1)
    assert report.ok
    assert report.matched == 50  # 53 rows minus the three errata
    assert {c.n for c in report.errata} == {11, 12, 14}
    assert all(c.matched for c in report.errata)  # engine matches the corrections
    assert not report.failures


def test_reproduce_checks_every_row_of_an_erratum_n(monkeypatch):
    # n = 12 prints three rows and its erratum corrects only the first: a
    # bogus fourth row, or a star on the erratum's n, must fail the report
    monkeypatch.setitem(tables.TABLE1, 12, [*tables.TABLE1[12], (99, 0, 0, 1)])
    report = tables.reproduce(1)
    assert not report.ok and [c.n for c in report.failures] == [12]
    monkeypatch.undo()
    monkeypatch.setitem(tables.TABLE1_STARS, 12, 1)
    report = tables.reproduce(1)
    assert not report.ok and [c.n for c in report.failures] == [12]


def test_reproduce_table2():
    report = tables.reproduce(2)
    assert report.ok
    assert report.matched == 158  # 160 rows minus the two extraction errata
    assert {c.n for c in report.errata} == {110, 194}
    assert all(c.matched for c in report.errata)
    assert not report.failures
    json_blob = report.to_json()
    assert json_blob["ok"] is True and json_blob["rows"] == 160


def test_star_semantics_match_classification():
    report = tables.reproduce(2)
    by_n = {c.n: c for c in report.checks}
    for n, star in tables.TABLE2_STARS.items():
        expected = {1: "may_hole", 2: "must_hole"}[star]
        assert by_n[n].classification == expected, f"n={n}"
    # unstarred rows are regular
    for n in (54, 60, 110, 194, 208, 213):
        assert by_n[n].classification == "regular"


def test_reproduce_rows_hold_the_argmin_of_best():
    # each table is read from one range scan: every row must still be checked
    # once, in n order, against the argmin best(n) gives
    for which, table in ((1, tables.TABLE1), (2, tables.TABLE2)):
        checks = tables.reproduce(which).checks
        assert [c.n for c in checks] == sorted(table)
        for c in checks:
            assert c.argmin == best(c.n).argmin, (which, c.n)
