"""The verdict rule of tools/bench_pairs.py on hand-made runs."""

from tools.bench_pairs import verdict, wins

PARENT = [10.0, 11.0, 12.0, 10.5, 11.5, 10.2, 11.8, 10.8, 11.2, 10.6]   # spread 18%


def test_gain_needs_nine_wins_and_medians_apart_by_the_parents_iqr():
    assert verdict(PARENT, [p - 3.0 for p in PARENT], 0.24, "lower") == "gain"
    # 8 of 10 pairs won
    eight = [p - 3.0 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    assert wins(PARENT, eight, "lower") == 8
    assert verdict(PARENT, eight, 0.24, "lower") == "same"
    # every pair won, by less than the inter-quartile range (0.9)
    assert verdict(PARENT, [p - 0.05 for p in PARENT], 0.24, "lower") == "same"
    # ties count for neither side
    assert wins(PARENT, PARENT, "lower") == 0


def test_worse_by_more_than_the_bound():
    assert verdict(PARENT, [p * 1.3 for p in PARENT], 0.24, "lower") == "worse"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], 0.24, "lower") == "same"
    assert verdict([1.0] * 10, [0.7] * 10, 0.24, "higher") == "worse"
    assert verdict([1.0] * 10, [1.0] * 10, 0.24, "higher") == "same"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [10.0, 14.0, 11.0, 10.5, 12.0, 10.2, 13.0, 10.8, 11.2, 10.6]   # spread 35%
    assert verdict(wide, [w * 1.05 for w in wide], 0.24, "lower") == "unresolved"
    # unless every change run beats every parent run
    skewed = [10.0, 10.1, 10.2, 10.3, 10.4, 20.0, 21.0, 22.0, 23.0, 24.0]
    assert verdict(skewed, [9.9] * 10, 0.24, "lower") == "same"
    assert verdict(skewed, [10.05] * 10, 0.24, "lower") == "unresolved"
