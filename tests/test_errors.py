"""Every validation error, pinned by class and message.

Each document carries exactly one defect and goes through
parse_document, so the case also pins which check of which kind
reports it.
"""

import pytest

from flagmaps import (BadZeroTwoComponent, Disconnected, FixedPointPresent,
                      NotDuality, NotInvolution, NotPermutation, NotPolarity,
                      TooSmall, Zero2NotCommuting, parse_document)


def flg(*rows):
    return "flg 1\nn %d\n" % len(rows[0].split()) + "".join(
        f"s{i} {row}\n" for i, row in enumerate(rows))


def stg(*rows):
    return "stg 1\nn %d\n" % len(rows[0].split()) + "".join(
        f"t{i} {row}\n" for i, row in enumerate(rows))


def xstg(t0, t1, t2, d):
    return "x" + stg(t0, t1, t2) + f"d {d}\n"


# (document, exception class, message)
CASES = (
    (flg("1 0 3 2", "2 3 0 1", "1 0 3 2"), FixedPointPresent,
     "s0*s2 fixes flag 0"),
    (flg("1 0 3 2", "2 3 0 7", "3 2 1 0"), NotPermutation,
     "s1 contains invalid image 7"),
    (flg("1 0 3 2", "2 3 0 0", "3 2 1 0"), NotPermutation,
     "s1 repeats image 0"),
    (stg("0", "-1", "0"), NotPermutation, "t1 contains invalid image -1"),
    (xstg("1 0 2", "0 2 1", "1 0 2", "0 0 1"), NotPermutation,
     "d repeats image 0"),
    (flg("1 0", "1 0", "1 0"), TooSmall,
     "a map needs at least 4 flags, got 2"),
    (flg("1 0 3 2", "1 2 3 0", "3 2 1 0"), NotInvolution,
     "s1 is not an involution (witness 0)"),
    (stg("0 1 2", "1 2 0", "0 1 2"), NotInvolution,
     "t1 is not an involution (witness 0)"),
    (flg("1 0 3 2", "0 1 3 2", "3 2 1 0"), FixedPointPresent,
     "s1 fixes flag 0"),
    (flg("1 0 3 2 5 4", "3 4 5 0 1 2", "5 2 1 4 3 0"), Zero2NotCommuting,
     "s0 and s2 do not commute at flag 0"),
    (flg("1 0 3 2 5 4 7 6", "2 3 0 1 6 7 4 5", "3 2 1 0 7 6 5 4"),
     Disconnected, "graph is disconnected (component sizes (4, 4))"),
    (stg("0 1 2 3", "1 0 3 2", "0 1 2 3"), Disconnected,
     "graph is disconnected (component sizes (2, 2))"),
    (stg("1 0 2", "0 1 2", "0 2 1"), BadZeroTwoComponent,
     "bad 0-2 component (0, 1, 2): 3 vertices is not a quotient size of a "
     "4-cycle"),
    (stg("1 0 3 2", "0 1 2 3", "0 2 1 3"), BadZeroTwoComponent,
     "bad 0-2 component (0, 1, 2, 3): 4 vertices, not an alternating "
     "cycle"),
    (xstg("1 0 2", "0 2 1", "1 0 2", "1 2 0"), NotPolarity,
     "not a polarity: d*d moves vertex 0"),
    (xstg("1 0", "0 1", "0 1", "0 1"), NotDuality,
     "not a duality: d t0 d != t2 at vertex 0"),
    (xstg("1 0 2", "0 2 1", "1 0 2", "1 0 2"), NotDuality,
     "not a duality: d t1 != t1 d at vertex 0"),
)


@pytest.mark.parametrize("text, error, message", CASES)
def test_single_defect_documents(text, error, message):
    with pytest.raises(error) as err:
        parse_document(text)
    assert type(err.value) is error
    assert str(err.value) == message
