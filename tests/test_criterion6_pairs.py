from pathlib import Path

import criterion6_pairs


def test_one_pair_of_this_tree_against_itself(capsys):
    root = Path(__file__).resolve().parents[1]
    sides = criterion6_pairs.main([str(root), str(root), "--pairs", "1", "--sizes", "4,6"])
    names = ["total slope", "energy slope", "inod slope", "balance slope",
             "realization slope", "t(4) s", "t(6) s"]
    for side in ("base", "change"):
        (run,) = sides[side]
        assert list(run) == names
        assert run["t(4) s"] > 0 and run["t(6) s"] > 0
    out = capsys.readouterr().out
    assert "pair 1   base:" in out and "pair 1 change:" in out
    assert "change median [quartiles] over 1 runs:" in out
