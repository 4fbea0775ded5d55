import json

import numpy as np
import numpy.testing as npt
import pytest

from nlbt import models
from nlbt.cli import _load_rom, main
from nlbt.errors import ContractViolation
from nlbt.kron import PolyMap, symmetrize_columns
from nlbt.pipeline import balance
from nlbt.serialization import (
    FormatError,
    load_system,
    polymap_from_dict,
    polymap_to_dict,
    save_system,
    system_from_dict,
    system_to_dict,
    systems_equal,
)


class TestKpsFormat:
    @pytest.mark.parametrize(
        "factory",
        [
            models.two_dim_illustrative,
            lambda: models.pendulum(5),
            models.three_dim_illustrative,
            lambda: models.random_stable_poly(4, 3, seed=3),
            # drift blocks drawn non-symmetric, stored as their representative
            lambda: models.random_stable_poly(6, 3, seed=0),
        ],
    )
    def test_round_trip_bit_exact(self, factory, tmp_path):
        sys = factory()
        path = tmp_path / "sys.json"
        save_system(sys, path)
        back = load_system(path)
        assert systems_equal(sys, back)

    def test_non_symmetric_blocks_load_to_the_same_polynomial(self):
        # a foreign document may store any Kronecker coefficient of a degree
        rng = np.random.default_rng(8)
        obj = system_to_dict(models.pendulum(3))
        raw = {k: rng.standard_normal((2, 2 ** k)) for k in (2, 3)}
        for k, W in raw.items():
            obj["f"][str(k)] = [[format(v, ".17g") for v in row] for row in W]
        f = system_from_dict(obj).f
        for k, W in raw.items():
            npt.assert_array_equal(f.terms[k], symmetrize_columns(W, 2, k))
        for x in 0.5 * rng.standard_normal((4, 2)):
            want = f.terms[1] @ x + raw[2] @ np.kron(x, x) + raw[3] @ np.kron(x, np.kron(x, x))
            npt.assert_allclose(f(x), want, rtol=1e-14, atol=1e-15)

    def test_dict_round_trip(self):
        sys = models.beam_single_element()
        assert systems_equal(sys, system_from_dict(system_to_dict(sys)))

    def test_version_check(self):
        with pytest.raises(FormatError):
            system_from_dict({"version": "bogus"})

    def test_malformed_block(self):
        obj = system_to_dict(models.pendulum(3))
        obj["f"]["1"] = [["1.0"]]
        with pytest.raises(FormatError):
            system_from_dict(obj)

    @pytest.mark.parametrize("field", ["f", "h"])
    def test_polymap_not_an_object(self, field):
        obj = system_to_dict(models.pendulum(3))
        obj[field] = []
        with pytest.raises(FormatError):
            system_from_dict(obj)


class TestPolymapCodec:
    def test_round_trip_bit_exact(self):
        pm = balance(models.pendulum(3), 3).Tbar
        back = polymap_from_dict(json.loads(json.dumps(polymap_to_dict(pm))))
        assert (back.base_dim, back.rows) == (pm.base_dim, pm.rows)
        assert set(back.terms) == set(pm.terms)
        assert all(np.array_equal(back.terms[k], W) for k, W in pm.terms.items())

    def test_layout(self):
        pm = PolyMap({1: [[0.1, 2.0]], 2: [[1.0, 0.0, 0.0, 1.0 / 3.0]]}, 2)
        assert polymap_to_dict(pm) == {
            "base_dim": 2,
            "rows": 1,
            "terms": {
                "1": [["0.10000000000000001", "2"]],
                "2": [["1", "0", "0", "0.33333333333333331"]],
            },
        }

    def test_malformed_block_names_its_shape(self):
        obj = polymap_to_dict(PolyMap({2: np.ones((2, 4))}, 2))
        obj["terms"]["2"] = [["1.0", "2.0"]]
        with pytest.raises(FormatError, match=r"\(1, 2\).*\(2, 4\)"):
            polymap_from_dict(obj)

    @pytest.mark.parametrize("drop", ["base_dim", "rows", "terms"])
    def test_missing_field(self, drop):
        obj = polymap_to_dict(PolyMap({1: np.eye(2)}, 2))
        del obj[drop]
        with pytest.raises(FormatError):
            polymap_from_dict(obj)


class TestCli:
    def test_export_and_balance(self, tmp_path):
        sys_path = tmp_path / "m.json"
        art_path = tmp_path / "art.json"
        assert main(["export", "--model", "2d-illustrative", "--out", str(sys_path)]) == 0
        assert main([
            "balance", "--file", str(sys_path), "--degree", "3",
            "--out", str(art_path),
        ]) == 0
        art = json.loads(art_path.read_text())
        sig2 = np.array([[float(v) for v in row] for row in art["sq_sv"]])
        npt.assert_allclose(sig2[:, 0], [2.0, 1.0], rtol=1e-9)
        npt.assert_allclose(sig2[:, 1:], 0, atol=1e-9)

    def test_balance_artifact_round_trips_system(self, tmp_path):
        art_path = tmp_path / "art.json"
        main(["balance", "--model", "pendulum:3", "--degree", "2", "--out", str(art_path)])
        art = json.loads(art_path.read_text())
        assert systems_equal(system_from_dict(art["system"]), models.pendulum(3))

    def test_reduce_full_order_matches_balanced(self, tmp_path):
        art_path = tmp_path / "art.json"
        rom_path = tmp_path / "rom.json"
        main(["balance", "--model", "pendulum:3", "--degree", "3", "--out", str(art_path)])
        assert main([
            "reduce", "--artifact", str(art_path), "-r", "2", "--out", str(rom_path),
        ]) == 0
        rom = json.loads(rom_path.read_text())
        assert rom["r"] == 2
        want = balance(models.pendulum(3), 3).reduce(2).sys
        assert systems_equal(system_from_dict(rom["rom"]), want)

    def test_malformed_artifact_block_is_parse_error(self, tmp_path, capsys):
        art_path = tmp_path / "art.json"
        main(["balance", "--model", "pendulum:3", "--degree", "2", "--out", str(art_path)])
        art = json.loads(art_path.read_text())
        art["Tbar"]["terms"]["2"] = [["1.0"]]
        art_path.write_text(json.dumps(art))
        assert main(["reduce", "--artifact", str(art_path), "-r", "1",
                     "--out", str(tmp_path / "r.json")]) == 3
        assert "(1, 1)" in capsys.readouterr().err

    def test_reduce_r_out_of_range(self, tmp_path, capsys):
        art_path = tmp_path / "art.json"
        main(["balance", "--model", "pendulum:3", "--degree", "2", "--out", str(art_path)])
        assert main(["reduce", "--artifact", str(art_path), "-r", "5",
                     "--out", str(tmp_path / "r.json")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "parse_error", "reason": "r must be in 1..2"}

    def test_rom_document_keeps_r_inverse_rows(self, tmp_path):
        # the ROM stores the r retained rows of P; a document that stores all
        # n rows loads to the same r rows
        art_path = tmp_path / "art.json"
        rom_path = tmp_path / "rom.json"
        main(["balance", "--model", "double-pendulum:3", "--degree", "3", "--out", str(art_path)])
        assert main(["reduce", "--artifact", str(art_path), "-r", "2", "--x0", "0.1,0,0,0.1",
                     "--out", str(rom_path)]) == 0
        doc = json.loads(rom_path.read_text())
        assert doc["inverse_transform"]["rows"] == 2
        rows = _load_rom(str(rom_path)).P
        doc["inverse_transform"] = polymap_to_dict(balance(models.double_pendulum(3), 3).P)
        assert doc["inverse_transform"]["rows"] == 4
        rom_path.write_text(json.dumps(doc))
        P = _load_rom(str(rom_path)).P
        assert P.rows == 2 and set(P.terms) == set(rows.terms)
        for k, W in rows.terms.items():
            assert np.array_equal(P.terms[k], W), k

    def test_artifact_carrying_p_reduces_to_the_same_rom(self, tmp_path):
        # artifacts written before the series inverse became derived data
        # carry a "P" field, which reduce does not read
        art_path = tmp_path / "art.json"
        main(["balance", "--model", "double-pendulum:3", "--degree", "3", "--out", str(art_path)])
        art = json.loads(art_path.read_text())
        assert "P" not in art
        old_path = tmp_path / "old.json"
        art["P"] = polymap_to_dict(balance(models.double_pendulum(3), 3).P)
        old_path.write_text(json.dumps(art))
        docs = []
        for path in (art_path, old_path):
            rom_path = tmp_path / f"rom-{path.stem}.json"
            assert main(["reduce", "--artifact", str(path), "-r", "2", "--x0", "0.1,0,0,0.1",
                         "--out", str(rom_path)]) == 0
            docs.append(json.loads(rom_path.read_text()))
        assert docs[0] == docs[1]

    def test_hypothesis_violation_exit_code(self, tmp_path):
        # identical Gramians -> repeated Hankel singular values
        from nlbt.kron import ControlAffineSystem, PolyMap

        n = 2
        sys = ControlAffineSystem(
            PolyMap({1: -0.5 * np.eye(n)}, n),
            [PolyMap({0: np.eye(n)[:, i : i + 1]}, n, rows=n) for i in range(n)],
            PolyMap({1: np.eye(n)}, n),
        )
        path = tmp_path / "degenerate.json"
        save_system(sys, path)
        code = main(["balance", "--file", str(path), "--degree", "2",
                     "--out", str(tmp_path / "a.json")])
        assert code == 2

    def test_contract_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        def broken(sys, d_transf):
            raise ContractViolation("residual does not contract")

        monkeypatch.setattr("nlbt.cli.balance", broken)
        assert main(["balance", "--model", "pendulum:3", "--degree", "2",
                     "--out", str(tmp_path / "a.json")]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "contract_violation"

    def test_bench_resampling_exhausted_exit_code(self, tmp_path, monkeypatch, capsys):
        def no_budget(n, d, seed):
            return models.random_stable_poly(n, d, seed, max_tries=0)

        monkeypatch.setattr("nlbt.bench.random_stable_poly", no_budget)
        assert main(["bench", "--sizes", "4", "--out", str(tmp_path / "b.csv")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "hypothesis_violation"
        assert "resampling budget exhausted" in err["reason"]

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["balance", "--file", str(bad), "--degree", "2",
                     "--out", str(tmp_path / "a.json")]) == 3

    def test_simulate_and_compare(self, tmp_path):
        art = tmp_path / "art.json"
        rom = tmp_path / "rom.json"
        main(["balance", "--model", "pendulum:3", "--degree", "3", "--out", str(art)])
        main(["reduce", "--artifact", str(art), "-r", "2", "--out", str(rom)])
        traj = tmp_path / "t.csv"
        assert main([
            "simulate", f"rom:{rom}", "--x0-full", "0.1,0.1",
            "--input", "sinusoid:amp=0.5,freq=0.3183",
            "--tspan", "0,5", "--samples", "200", "--out", str(traj),
        ]) == 0
        assert traj.exists()
        prefix = tmp_path / "cmp"
        assert main([
            "compare", "--reference", "model:pendulum:3",
            "--candidate", f"rom:{rom}",
            "--x0", "0.1,0.1", "--input", "zero", "--tspan", "0,5",
            "--samples", "200", "--out-prefix", str(prefix),
        ]) == 0
        summary = json.loads((tmp_path / "cmp_errors.json").read_text())
        assert "l2_per_channel" in summary["candidate0"]

    def test_compare_self_is_zero_error(self, tmp_path):
        prefix = tmp_path / "self"
        assert main([
            "compare", "--reference", "model:pendulum:3",
            "--candidate", "model:pendulum:3",
            "--x0", "0.05,0.05", "--tspan", "0,2", "--samples", "100",
            "--out-prefix", str(prefix),
        ]) == 0
        summary = json.loads((tmp_path / "self_errors.json").read_text())
        assert max(summary["candidate0"]["l2_per_channel"]) < 1e-12

    def test_bench_runs_and_refuses(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main([
            "bench", "--sizes", "4,6", "--degree", "3", "--repetitions", "1",
            "--seed", "0", "--out", str(out),
        ]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("n,")
        assert len(rows) == 3
        # absurd budget forces a refusal
        assert main([
            "bench", "--sizes", "64", "--degree", "3", "--budget-gb", "0.000001",
            "--out", str(tmp_path / "b2.csv"),
        ]) == 4

    def test_bench_zero_repetitions_is_parse_error(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "8", "--repetitions", "0", "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "parse_error", "reason": "repetitions must be at least 1"}
        assert not out.exists()

    def test_simulate_white_noise_before_zero(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main([
            "simulate", "model:pendulum:3", "--tspan=-1,1",
            "--input", "white_noise:amp=1,seed=3", "--samples", "50", "--out", str(out),
        ]) == 0
        assert out.exists()

    def test_bench_time_monotone(self, tmp_path):
        from nlbt.bench import run_bench

        rows = run_bench([4, 16], d_energy=3, repetitions=1, seed=0)
        assert rows[1]["total"] >= rows[0]["total"]
        assert all("energy_var" in r for r in rows)
