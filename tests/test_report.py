from intersection_analyzer.report import fmt, fmt_int, round_half_up


def test_fmt_prints_the_rounded_decimal():
    # A float this large carries binary digits past the fourth decimal place.
    assert fmt(63077183662214.02, 4) == "63077183662214.0200"
    assert fmt(2.675, 2) == "2.68"
    assert fmt(-0.004, 2) == "-0.00"
    assert fmt(12.5, 0) == "13"
    assert fmt_int(12.5) == "13"
    assert round_half_up(2.675, 2) == 2.68
