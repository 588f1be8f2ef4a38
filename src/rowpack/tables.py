"""Published best-packing tables as machine-readable fixtures, with errata.

Rows are (w, h, h_minus) plus the square-row count s for the small table.
Star counts mark holes: one star = the optimum may contain a monovacancy
(tie), two stars = it must.  Five rows are annotated as errata: three fail
basic consistency against n = w(h+s) - h_minus - s_minus - d or against the
legal h_minus values for their h, one claims a provably suboptimal packing,
and one is a plain misprint; the `corrected` entries carry the values the
search reproduces.  Reproduction reports diff engine argmin sets against
these fixtures.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import search
from .packings import ClassConfig

# n -> list of (w, h, h_minus, s); several rows mean several optimal shapes.
TABLE1: dict[int, list[tuple[int, int, int, int]]] = {
    1: [(1, 0, 0, 1)],
    2: [(2, 0, 0, 1)],
    3: [(3, 0, 0, 1)],
    4: [(4, 0, 0, 1), (2, 0, 0, 2)],
    5: [(5, 0, 0, 1)],
    6: [(6, 0, 0, 1), (3, 0, 0, 2)],
    7: [(7, 0, 0, 1)],
    8: [(8, 0, 0, 1), (4, 0, 0, 2)],
    9: [(9, 0, 0, 1), (3, 0, 0, 3)],
    10: [(10, 0, 0, 1), (5, 0, 0, 2)],
    11: [(6, 2, 1, 0)],
    12: [(12, 0, 0, 12), (6, 0, 0, 2), (4, 0, 0, 3)],
    13: [(13, 0, 0, 1)],
    14: [(5, 3, 1, 1)],
    15: [(8, 2, 1, 0), (4, 3, 1, 1)],
    16: [(8, 2, 0, 0)],
    17: [(6, 3, 1, 0)],
    18: [(9, 2, 0, 0)],
    19: [(10, 2, 1, 0), (5, 3, 1, 1)],
    20: [(7, 3, 1, 0)],
    21: [(7, 3, 0, 0)],
    22: [(11, 2, 0, 0)],
    23: [(8, 3, 1, 0)],
    24: [(8, 3, 0, 0)],
    25: [(13, 2, 1, 0)],
    26: [(9, 3, 1, 0)],
    27: [(9, 3, 0, 0)],
    28: [(6, 5, 2, 0)],
    29: [(10, 3, 1, 0)],
    30: [(10, 3, 0, 0)],
    31: [(16, 2, 1, 0), (8, 3, 1, 1)],
    32: [(11, 3, 1, 0)],
    33: [(7, 5, 2, 0)],
    34: [(9, 4, 2, 0)],
    35: [(12, 3, 1, 0)],
    36: [(12, 3, 0, 0)],
    37: [(19, 2, 1, 0)],
    38: [(13, 3, 1, 0)],
    39: [(13, 3, 0, 0)],
    40: [(10, 4, 0, 0)],
    41: [(14, 3, 1, 0)],
    42: [(11, 4, 2, 0)],
    43: [(9, 5, 2, 0)],
    44: [(15, 3, 1, 0)],
    45: [(15, 3, 0, 0)],
    46: [(12, 4, 2, 0)],
    47: [(16, 3, 1, 0)],
    48: [(10, 5, 2, 0)],
    49: [(17, 3, 2, 0)],
    50: [(17, 3, 1, 0)],
    51: [(17, 3, 0, 0)],
    52: [(13, 4, 0, 0)],
    53: [(11, 5, 2, 0)],
}

TABLE1_STARS: dict[int, int] = {49: 1}

# n -> (w, h, h_minus); the larger table lists one shape per n and no s column.
TABLE2: dict[int, tuple[int, int, int]] = {
    54: (14, 4, 2), 55: (11, 5, 0), 56: (19, 3, 1), 57: (19, 3, 0),
    58: (12, 5, 2), 59: (20, 3, 1), 60: (9, 7, 3), 61: (21, 3, 2),
    62: (21, 3, 1), 63: (13, 5, 2), 64: (16, 4, 0), 65: (22, 3, 1),
    66: (17, 4, 2), 67: (10, 7, 3), 68: (14, 5, 2), 69: (12, 6, 3),
    70: (14, 5, 0), 71: (24, 3, 1), 72: (18, 4, 0), 73: (15, 5, 2),
    74: (11, 7, 3), 75: (15, 5, 0), 76: (19, 4, 0), 77: (26, 3, 1),
    78: (16, 5, 2), 79: (16, 5, 0), 80: (16, 5, 0), 81: (12, 7, 3),
    82: (21, 4, 2), 83: (17, 5, 2), 84: (14, 6, 0), 85: (17, 5, 0),
    86: (22, 4, 2), 87: (15, 6, 3), 88: (18, 5, 2), 89: (30, 3, 1),
    90: (18, 5, 0), 91: (13, 7, 0), 92: (23, 4, 0), 93: (19, 5, 2),
    94: (24, 4, 2), 95: (14, 7, 3), 96: (16, 6, 0), 97: (20, 5, 3),
    98: (20, 5, 2), 99: (17, 6, 3), 100: (20, 5, 0), 101: (34, 3, 1),
    102: (15, 7, 3), 103: (21, 5, 2), 104: (12, 9, 4), 105: (18, 6, 3),
    106: (27, 4, 2), 107: (22, 5, 3), 108: (22, 5, 2), 109: (16, 7, 3),
    110: (22, 5, 3), 111: (19, 6, 3), 112: (16, 7, 0), 113: (23, 5, 2),
    114: (19, 6, 0), 115: (23, 5, 0), 116: (17, 7, 3), 117: (20, 6, 3),
    118: (24, 5, 2), 119: (17, 7, 0), 120: (20, 6, 0), 121: (14, 9, 5),
    122: (14, 9, 4), 123: (18, 7, 3), 124: (16, 8, 4), 125: (25, 5, 0),
    126: (21, 6, 0), 127: (12, 11, 5), 128: (26, 5, 2), 129: (22, 6, 3),
    130: (19, 7, 3), 131: (15, 9, 4), 132: (22, 6, 0), 133: (27, 5, 2),
    134: (34, 4, 2), 135: (23, 6, 3), 136: (17, 8, 0), 137: (20, 7, 3),
    138: (28, 5, 2), 139: (16, 9, 5), 140: (16, 9, 4), 141: (24, 6, 3),
    142: (29, 5, 3), 143: (29, 5, 2), 144: (21, 7, 3), 145: (29, 5, 0),
    146: (37, 4, 2), 147: (21, 7, 0), 148: (30, 5, 2), 149: (17, 9, 4),
    150: (25, 6, 0), 151: (22, 7, 3), 152: (19, 8, 0), 153: (31, 5, 2),
    154: (22, 7, 0), 155: (31, 5, 0), 156: (20, 8, 4), 157: (23, 7, 4),
    158: (23, 7, 3), 159: (27, 6, 3), 160: (20, 8, 0), 161: (23, 7, 0),
    162: (27, 6, 0), 163: (33, 5, 2), 164: (21, 8, 4), 165: (24, 7, 3),
    166: (19, 9, 5), 167: (19, 9, 4), 168: (34, 5, 2), 169: (13, 13, 0),
    170: (17, 10, 0), 171: (16, 11, 5), 172: (25, 7, 3), 173: (35, 5, 2),
    174: (29, 6, 0), 175: (25, 7, 0), 176: (20, 9, 4), 177: (30, 6, 3),
    178: (36, 5, 2), 179: (26, 7, 3), 180: (23, 8, 4), 181: (26, 7, 0),
    182: (26, 7, 0), 183: (37, 5, 2), 184: (23, 8, 0), 185: (21, 9, 4),
    186: (27, 7, 3), 187: (17, 11, 0), 188: (24, 8, 4), 189: (27, 7, 0),
    190: (19, 10, 0), 191: (24, 8, 0), 192: (24, 8, 0), 193: (28, 7, 3),
    194: (22, 9, 3), 195: (20, 10, 5), 196: (25, 8, 4), 197: (22, 9, 0),
    198: (22, 9, 0), 199: (29, 7, 4), 200: (29, 7, 3), 201: (34, 6, 3),
    202: (16, 13, 6), 203: (23, 9, 4), 204: (19, 11, 5), 205: (21, 10, 5),
    206: (30, 7, 4), 207: (30, 7, 3), 208: (26, 8, 0), 209: (19, 11, 0),
    210: (30, 7, 0), 211: (24, 9, 5), 212: (24, 9, 4), 213: (36, 6, 3),
}

TABLE2_STARS: dict[int, int] = {
    61: 1, 79: 2, 97: 1, 107: 1, 121: 1, 139: 1, 142: 1, 157: 1,
    166: 1, 181: 2, 191: 2, 197: 2, 199: 1, 206: 1, 211: 1,
}


@dataclass(frozen=True, slots=True)
class Erratum:
    n: int
    printed: tuple
    corrected: tuple
    reason: str


TABLE1_ERRATA: dict[int, Erratum] = {
    11: Erratum(
        n=11, printed=(6, 2, 1, 0), corrected=(4, 3, 1, 0),
        reason="printed shape has area 12(2+sqrt3) > 16(1+sqrt3), the density "
               "quoted for n=11; the 4/3/4-row packing is the class optimum",
    ),
    12: Erratum(
        n=12, printed=(12, 0, 0, 12), corrected=(12, 0, 0, 1),
        reason="s=12 fails the circle-count identity (12 rows of 12 is n=144); "
               "single-row grid intended",
    ),
    14: Erratum(
        n=14, printed=(5, 3, 1, 1), corrected=(5, 3, 1, 0),
        reason="with s=1 the circle-count identity gives n=19; s=0 intended",
    ),
}

TABLE2_ERRATA: dict[int, Erratum] = {
    110: Erratum(
        n=110, printed=(22, 5, 3), corrected=(22, 5, 0),
        reason="w*h - h_minus = 107 != 110 for any hole count; h_minus=0 "
               "restores the identity and matches the search",
    ),
    194: Erratum(
        n=194, printed=(22, 9, 3), corrected=(22, 9, 4),
        reason="h_minus=3 is not legal for h=9 (0, 4 or 5) and fails the "
               "circle-count identity; h_minus=4 restores both",
    ),
}

_STAR_CLASS = {
    0: search.Classification.REGULAR,
    1: search.Classification.MAY_HAVE_HOLE,
    2: search.Classification.MUST_HAVE_HOLE,
}


@dataclass(frozen=True, slots=True)
class RowCheck:
    n: int
    row: tuple
    matched: bool
    star_ok: bool
    erratum: Erratum | None
    classification: str
    argmin: tuple[ClassConfig, ...]


@dataclass(frozen=True, slots=True)
class TableReport:
    which: int
    checks: tuple[RowCheck, ...]

    @property
    def matched(self) -> int:
        return sum(1 for c in self.checks if c.matched and c.erratum is None)

    @property
    def errata(self) -> list[RowCheck]:
        return [c for c in self.checks if c.erratum is not None]

    @property
    def failures(self) -> list[RowCheck]:
        return [c for c in self.checks if not (c.matched and c.star_ok)]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "table": self.which,
            "rows": len(self.checks),
            "matched": self.matched,
            "failures": [{"n": c.n, "row": list(c.row)} for c in self.failures],
            "errata": [
                {
                    "n": c.erratum.n,
                    "printed": list(c.erratum.printed),
                    "corrected": list(c.erratum.corrected),
                    "engine_matches_correction": c.matched,
                    "reason": c.erratum.reason,
                }
                for c in self.errata
            ],
            "ok": self.ok,
        }


def _argmin_has(result: search.SearchResult, w: int, h: int, h_minus: int,
                s: int | None = None) -> bool:
    for cfg in result.argmin:
        if cfg.w == w and cfg.h == h and cfg.h_minus == h_minus:
            if s is None or cfg.s == s:
                return True
    return False


def reproduce(which: int) -> TableReport:
    """Diff the engine's argmin sets against the published table.

    Each table covers a contiguous run of n, read from one range scan, which
    sieves them by blocks rather than one n at a time.
    """
    if which == 1:
        table, stars, errata = TABLE1, TABLE1_STARS, TABLE1_ERRATA
    elif which == 2:
        table = {n: [row] for n, row in TABLE2.items()}
        stars, errata = TABLE2_STARS, TABLE2_ERRATA
    else:
        raise ValueError("table must be 1 or 2")

    checks: list[RowCheck] = []
    for result in search.iter_range(min(table), max(table)):
        n = result.n
        if n not in table:
            continue
        rows, err = table[n], errata.get(n)
        # every printed row is checked; an erratum replaces only its own row
        matched = all(_argmin_has(result, *(err.corrected if err and row == err.printed else row))
                      for row in rows)
        checks.append(
            RowCheck(
                n=n, row=tuple(rows[0]) if len(rows) == 1 else tuple(rows),
                matched=matched,
                star_ok=result.classification is _STAR_CLASS[stars.get(n, 0)],
                erratum=err, classification=result.classification.value,
                argmin=result.argmin,
            )
        )
    return TableReport(which=which, checks=tuple(checks))

