import json
from pathlib import Path

import criterion6_pairs


def test_one_pair_of_this_tree_against_itself(capsys, tmp_path):
    root = Path(__file__).resolve().parents[1]
    path = tmp_path / "pairs.json"
    sides = criterion6_pairs.main([str(root), str(root), "--pairs", "1", "--sizes", "4,6",
                                   "--json", str(path)])
    names = ["total slope", "energy slope", "inod slope", "balance slope",
             "realization slope", "t(4) s", "t(6) s"]
    for side in ("base", "change"):
        (run,) = sides[side]
        assert list(run) == names
        assert run["t(4) s"] > 0 and run["t(6) s"] > 0
    out = capsys.readouterr().out
    assert "pair 1   base:" in out and "pair 1 change:" in out
    assert "change median [quartiles] over 1 runs:" in out
    doc = json.loads(path.read_text())
    assert doc["runs"] == sides
    assert doc["pairs"] == 1 and doc["sizes"] == [4, 6]
    for side in ("base", "change"):
        (run,) = sides[side]
        for name in names:
            assert doc["summary"][side][name] == {"median": run[name], "q1": run[name],
                                                  "q3": run[name]}
    env = doc["environment"]
    assert set(env) == {"python", "numpy", "scipy", "threads_env", "cpu_count"}
    assert env["threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["cpu_count"] >= 1
