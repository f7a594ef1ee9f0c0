"""Employment-state transition legality, the table the tests audit random
play against.

Cell kinds: ``D`` decision, ``E`` exogenous probability, ``D*`` decision after
exogenous events end a spell, ``D^`` the same but only if not disabled, ``-``
not applicable.  The extended earnings-related state shares the unemployed
row; death is reachable from every state and absorbing.
"""

from __future__ import annotations

from lifesim.states import EmploymentState as S

# Column order of the core table.
_COLS = (
    S.FULL_TIME, S.RETIRED, S.DISABLED, S.ER_UNEMPLOYED, S.MOTHERS_LEAVE,
    S.FATHERS_LEAVE, S.HOME_CARE, S.RETIRED_PT, S.RETIRED_FT, S.PART_TIME,
    S.OUTSIDE_WF, S.STUDENT, S.BASIC_UNEMPLOYED, S.SICK_LEAVE,
)

_ROWS: dict[S, str] = {
    #                 FT  Re  Di  Un  Mo  Fa  Su  RP  RF  PT  Ou  St  Lm  Si
    S.FULL_TIME:        "D   D   E   E   E   E   D   -   -   D   E   E   D   E",
    S.RETIRED:          "-   D   E   -   -   -   -   D   D   -   -   -   -   -",
    S.DISABLED:         "-   E   E   -   -   -   -   -   -   -   -   -   -   -",
    S.ER_UNEMPLOYED:    "D   D   E   E   E   E   D   -   -   D   E   E   D   E",
    S.MOTHERS_LEAVE:    "D*  D*  E   E   E   E   D*  -   -   D*  E   E   D*  E",
    S.FATHERS_LEAVE:    "D*  D*  E   E   E   E   D*  -   -   D*  E   E   D*  E",
    S.HOME_CARE:        "D   -   E   E   E   E   D   -   -   D   E   E   D   E",
    S.RETIRED_PT:       "-   D   E   -   -   -   -   D   D   -   -   -   -   -",
    S.RETIRED_FT:       "-   D   E   -   -   -   -   D   D   -   -   -   -   -",
    S.PART_TIME:        "D   D   E   E   E   E   D   -   -   D   E   E   E   E",
    S.OUTSIDE_WF:       "-   -   E   E   E   E   E   -   -   D   E   E   E   E",
    S.STUDENT:          "-   -   E   -   E   E   E   -   -   D   E   E   E   -",
    S.BASIC_UNEMPLOYED: "D   D   E   -   E   E   E   -   -   D   E   E   D   E",
    S.SICK_LEAVE:       "D^  E   E   D^  E   E   D^  -   -   D^  -   -   D^  E",
}

LEGAL: dict[tuple[S, S], str] = {}
for frm, row in _ROWS.items():
    for col, kind in zip(_COLS, row.split()):
        if kind != "-":
            LEGAL[(frm, col)] = kind

# Extended earnings-related unemployment: unemployed row semantics, entered
# exogenously on benefit exhaustion at qualifying ages.
for col in _COLS:
    kind = LEGAL.get((S.ER_UNEMPLOYED, col))
    if kind is not None:
        LEGAL[(S.ER_EXTENDED, col)] = kind
LEGAL[(S.ER_EXTENDED, S.ER_EXTENDED)] = "E"
LEGAL[(S.ER_UNEMPLOYED, S.ER_EXTENDED)] = "E"
LEGAL[(S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED)] = LEGAL.get((S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED), "D")

# Death is exogenous from everywhere and absorbing.
for frm in S:
    LEGAL[(frm, S.DEAD)] = "E"
LEGAL[(S.DEAD, S.DEAD)] = "E"


def is_legal(frm: S, to: S) -> bool:
    return (frm, to) in LEGAL
