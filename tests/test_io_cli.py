import copy
import io
import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from nlbt import models
from nlbt.cli import main
from nlbt.errors import ContractViolation
from nlbt.kron import PolyMap, symmetrize_columns
from nlbt.pipeline import balance
from nlbt.serialization import (
    FormatError,
    balance_to_dict,
    load_balance,
    load_rom,
    load_system,
    polymap_from_dict,
    polymap_to_dict,
    rom_to_dict,
    save_balance,
    save_rom,
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

    def test_file_bytes_match_json_dump_encoding(self, tmp_path):
        # one string written at once: the same bytes json.dump streams in
        # chunks, checked on a zoo ROM
        rom = balance(models.pendulum(7), 7).reduce(1)
        path = tmp_path / "rom.json"
        save_system(rom.sys, path)
        ref = io.StringIO()
        json.dump(system_to_dict(rom.sys), ref, indent=1)
        ref.write("\n")
        assert path.read_bytes() == ref.getvalue().encode()

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

    @pytest.mark.parametrize(
        "name", ["2d-illustrative", "pendulum:7", "3d-illustrative", "3d-illustrative-exact",
                 "double-pendulum:5", "beam"]
    )
    def test_exported_zoo_file_rewrites_its_bytes(self, name, tmp_path):
        path = tmp_path / "sys.json"
        assert main(["export", "--model", name, "--out", str(path)]) == 0
        save_system(load_system(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("field", ["n", "m", "p", "degree", "f", "g", "h"])
    def test_missing_field_is_named(self, field):
        obj = system_to_dict(models.beam_single_element())
        del obj[field]
        with pytest.raises(FormatError, match=f"^kps-1 document: missing field '{field}'$"):
            system_from_dict(obj)

    def test_degree_must_be_the_largest_block_degree(self, tmp_path, capsys):
        obj = system_to_dict(models.beam_single_element())
        assert obj["degree"] == 3
        obj["degree"] = 7
        path = tmp_path / "beam.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "art.json"
        assert main(["balance", "--file", str(path), "--degree", "2", "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "parse_error",
                       "reason": "kps-1 document: field 'degree' is 7, but the blocks reach 3"}
        assert not out.exists()

    def test_input_column_count_names_the_field(self):
        obj = system_to_dict(models.beam_single_element())
        obj["g"] = obj["g"][:2]
        with pytest.raises(FormatError, match="field 'g': expected a list of 6 entries, got 2"):
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


def maps_equal(a, b):
    if (a.base_dim, a.rows) != (b.base_dim, b.rows) or set(a.terms) != set(b.terms):
        return False
    return all(np.array_equal(a.terms[k], W) for k, W in b.terms.items())


def energies_equal(a, b):
    return set(a.coeffs) == set(b.coeffs) and all(
        np.array_equal(a.coeffs[k], v) for k, v in b.coeffs.items()
    )


@pytest.fixture(scope="module")
def pendulum_run():
    pl = balance(models.pendulum(3), 3)
    return pl, pl.reduce(1, x0=[0.1, 0.05])


class TestDocuments:
    @pytest.mark.parametrize("name", ["pendulum:3", "double-pendulum:3"])
    def test_balance_round_trip_bit_exact(self, name, tmp_path):
        pl = balance(models.by_name(name), 3)
        path = tmp_path / "art.json"
        save_balance(pl, path)
        text = path.read_text()
        assert text == json.dumps(balance_to_dict(pl), indent=1) + "\n"
        back = load_balance(path)
        assert systems_equal(back.sys, pl.sys) and back.d_transf == pl.d_transf
        npt.assert_array_equal(back.hankel, pl.hankel)
        npt.assert_array_equal(back.sq_sv.coeffs, pl.sq_sv.coeffs)
        assert energies_equal(back.Ec, pl.Ec) and energies_equal(back.Eo, pl.Eo)
        assert maps_equal(back.Tbar, pl.Tbar)
        npt.assert_array_equal(back.Tbar1_inv, pl.Tbar1_inv)
        save_balance(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == text

    @pytest.mark.parametrize("name,r", [("pendulum:3", 1), ("double-pendulum:3", 2)])
    def test_rom_round_trip_bit_exact(self, name, r, tmp_path):
        sys = models.by_name(name)
        rom = balance(sys, 3).reduce(r, x0=np.full(sys.n, 0.1))
        path = tmp_path / "rom.json"
        save_rom(rom, path)
        text = path.read_text()
        assert text == json.dumps(rom_to_dict(rom), indent=1) + "\n"
        back = load_rom(path)
        assert (back.r, back.d_rom) == (rom.r, rom.d_rom)
        assert systems_equal(back.sys, rom.sys)
        assert maps_equal(back.T_r, rom.T_r) and maps_equal(back.P, rom.P)
        npt.assert_array_equal(back.x_r0, rom.x_r0)
        npt.assert_array_equal(back.hankel, rom.hankel)
        save_rom(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == text

    def test_artifact_carrying_p_loads_to_the_same_transform(self, pendulum_run, tmp_path):
        pl, _ = pendulum_run
        doc = balance_to_dict(pl)
        doc["P"] = polymap_to_dict(pl.P)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        back = load_balance(path)
        assert maps_equal(back.Tbar, pl.Tbar) and energies_equal(back.Ec, pl.Ec)

    def test_readers_raise_format_error(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2]")
        for load in (load_balance, load_rom):
            with pytest.raises(FormatError, match="expected an object, got list"):
                load(path)


def _with(doc, field, value):
    doc[field] = value
    return doc


def _drop(doc, field):
    del doc[field]
    return doc


# (name, mutation of a pendulum:3 artifact, text the reason must hold)
BAD_ARTIFACTS = [
    ("not-an-object", lambda doc: [1, 2], "nlbt-balance-1"),
    ("kps-1-file", lambda doc: doc["system"], "'version'"),
    ("one-hankel-value", lambda doc: _with(doc, "hankel", doc["hankel"][:1]), "'hankel'"),
    ("d_transf-zero", lambda doc: _with(doc, "d_transf", 0), "'d_transf'"),
    ("d_transf-true", lambda doc: _with(doc, "d_transf", True), "'d_transf'"),
    ("system-n-true", lambda doc: _with(doc, "system", {**doc["system"], "n": True}), "'n'"),
    ("sq_sv-row-dropped", lambda doc: _with(doc, "sq_sv", doc["sq_sv"][:1]), "'sq_sv'"),
    ("energy-length", lambda doc: _with(
        doc, "energies", {**doc["energies"], "observability": {"2": ["1"]}}), "'energies'"),
    ("Tbar-base_dim", lambda doc: _with(
        doc, "Tbar", {**doc["Tbar"], "base_dim": 1, "terms": {}}), "'Tbar'"),
    ("Tbar1_inv-shape", lambda doc: _with(doc, "Tbar1_inv", [["1"]]), "'Tbar1_inv'"),
] + [
    (f"missing-{field}", lambda doc, field=field: _drop(doc, field), f"'{field}'")
    for field in ("version", "d_transf", "system", "hankel", "sigma_condition", "sq_sv",
                  "energies", "Tbar", "Tbar1_inv")
]

# (name, mutation of a pendulum:3 ROM document with r = 1, text the reason must hold)
BAD_ROMS = [
    ("not-an-object", lambda doc: [1, 2], "nlbt-rom-1"),
    ("r-below-rom-n", lambda doc: _with(
        doc, "rom", system_to_dict(models.pendulum(3))), "'rom'"),
    ("transform-base_dim", lambda doc: _with(
        doc, "transform", {**doc["transform"], "base_dim": 2, "terms": {}}), "'transform'"),
    ("inverse-base_dim", lambda doc: _with(
        doc, "inverse_transform", {**doc["inverse_transform"], "base_dim": 1, "terms": {}}),
     "'inverse_transform'"),
    ("x_r0-length", lambda doc: _with(doc, "x_r0", ["0", "0"]), "'x_r0'"),
    ("hankel-length", lambda doc: _with(doc, "hankel", doc["hankel"][:1]), "'hankel'"),
    ("d_rom-negative", lambda doc: _with(doc, "d_rom", -2), "'d_rom'"),
] + [
    (f"missing-{field}", lambda doc, field=field: _drop(doc, field), f"'{field}'")
    for field in ("version", "r", "d_rom", "rom", "transform", "inverse_transform", "x_r0",
                  "hankel")
]


class TestMalformedDocuments:
    """Every malformed document is a parse_error (exit 3) whose reason names the field."""

    @pytest.mark.parametrize(
        "mutate,names", [case[1:] for case in BAD_ARTIFACTS], ids=[c[0] for c in BAD_ARTIFACTS]
    )
    def test_reduce_rejects_artifact(self, mutate, names, pendulum_run, tmp_path, capsys):
        path = tmp_path / "art.json"
        path.write_text(json.dumps(mutate(balance_to_dict(pendulum_run[0]))))
        out = tmp_path / "rom.json"
        assert main(["reduce", "--artifact", str(path), "-r", "1", "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse_error"
        assert names in err["reason"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate,names", [case[1:] for case in BAD_ROMS], ids=[c[0] for c in BAD_ROMS]
    )
    def test_simulate_rejects_rom(self, mutate, names, pendulum_run, tmp_path, capsys):
        path = tmp_path / "rom.json"
        path.write_text(json.dumps(mutate(rom_to_dict(pendulum_run[1]))))
        out = tmp_path / "t.csv"
        assert main(["simulate", f"rom:{path}", "--tspan", "0,1", "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse_error"
        assert names in err["reason"]
        assert not out.exists()

    def test_missing_field_reason_names_document_and_field(self, pendulum_run, tmp_path, capsys):
        path = tmp_path / "rom.json"
        path.write_text(json.dumps(_drop(rom_to_dict(pendulum_run[1]), "x_r0")))
        assert main(["simulate", f"rom:{path}", "--out", str(tmp_path / "t.csv")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["reason"] == "nlbt-rom-1 document: missing field 'x_r0'"

    @pytest.mark.parametrize(
        "argv",
        [["reduce", "--artifact", "{dir}", "-r", "1"],
         ["balance", "--file", "{dir}", "--degree", "2"]],
        ids=["reduce-artifact", "balance-file"],
    )
    def test_directory_as_input_is_parse_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out.json"
        args = [a.format(dir=tmp_path) for a in argv] + ["--out", str(out)]
        assert main(args) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "parse_error",
                       "reason": f"cannot read '{tmp_path}': Is a directory"}
        assert not out.exists()

    @pytest.mark.parametrize("degree", ["0", "-2"])
    def test_reduce_rom_degree_below_one(self, degree, pendulum_run, tmp_path, capsys):
        art = tmp_path / "art.json"
        save_balance(pendulum_run[0], art)
        out = tmp_path / "rom.json"
        assert main(["reduce", "--artifact", str(art), "-r", "1", f"--rom-degree={degree}",
                     "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "parse_error",
                       "reason": f"ROM degree must be at least 1, got {degree}"}
        assert not out.exists()


# (document, keys down to one number in it): one numeric field of each document
NONFINITE_FIELDS = [
    ("kps-1", ("f", "1", 0, 0)),  # an entry of A
    ("nlbt-balance-1", ("Tbar1_inv", 0, 0)),
    ("nlbt-balance-1", ("sigma_condition",)),
    ("nlbt-rom-1", ("x_r0", 0)),
]


class TestNonFiniteValues:
    """A non-finite number in a numeric field is a parse_error naming the field; none is written."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "doc_name,keys", NONFINITE_FIELDS, ids=[f"{d}-{k[0]}" for d, k in NONFINITE_FIELDS]
    )
    def test_read_is_parse_error(self, doc_name, keys, value, pendulum_run, tmp_path, capsys):
        pl, rom = pendulum_run
        path, out = tmp_path / "in.json", tmp_path / "out"
        if doc_name == "kps-1":
            doc, argv = system_to_dict(pl.sys), ["balance", "--file", str(path), "--degree", "3"]
        elif doc_name == "nlbt-balance-1":
            doc, argv = balance_to_dict(pl), ["reduce", "--artifact", str(path), "-r", "1"]
        else:
            doc, argv = rom_to_dict(rom), ["simulate", f"rom:{path}", "--tspan", "0,1"]
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path.write_text(json.dumps(doc))
        assert main(argv + ["--out", str(out)]) == 3
        captured = capsys.readouterr()
        # nothing on stderr but the one JSON line: no warning, no traceback
        assert captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "parse_error"
        assert f"{doc_name} document: field '{keys[0]}'" in err["reason"]
        assert "non-finite" in err["reason"]
        assert not out.exists()

    def test_writers_refuse_before_writing(self, pendulum_run, tmp_path):
        sys_obj = models.pendulum(3)
        sys_obj.h = PolyMap({1: np.array([[np.inf, 0.0]])}, 2)
        rom = copy.copy(pendulum_run[1])
        rom.x_r0 = np.array([np.nan])
        for save, obj in ((save_system, sys_obj), (save_rom, rom)):
            path = tmp_path / "out.json"
            with pytest.raises(FormatError, match="non-finite"):
                save(obj, path)
            assert not path.exists()


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
        rows = load_rom(rom_path).P
        doc["inverse_transform"] = polymap_to_dict(balance(models.double_pendulum(3), 3).P)
        assert doc["inverse_transform"]["rows"] == 4
        rom_path.write_text(json.dumps(doc))
        P = load_rom(rom_path).P
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
        # 40·8·1000³ B is over the fixed 8 GiB: refused before a system is drawn
        assert main([
            "bench", "--sizes", "1000", "--degree", "3",
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

    @pytest.mark.parametrize("tspan", ["1,0", "0,0", "0,1,2"])
    def test_simulate_bad_tspan_is_parse_error(self, tspan, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main([
            "simulate", "model:pendulum:3", f"--tspan={tspan}", "--out", str(out),
        ]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse_error"
        assert err["reason"].startswith("t_span must be two finite times t0 < tf")
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["1", "0"])
    def test_simulate_too_few_samples_is_parse_error(self, samples, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main([
            "simulate", "model:pendulum:3", "--x0", "0.1,0", "--tspan", "0,1",
            "--samples", samples, "--out", str(out),
        ]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse_error"
        assert err["reason"] == f"n_samples must be at least 2, got {samples}"
        assert not out.exists()

    def test_unknown_model_reason_is_the_message(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["export", "--model", "nosuch", "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "parse_error", "reason": "unknown model 'nosuch'"}
        assert not out.exists()

    @pytest.mark.parametrize("spec, missing", [
        ("sinusoid:amp=1", "freq"), ("white_noise:amp=1", "seed"),
    ])
    def test_missing_signal_parameter_is_named(self, spec, missing, tmp_path, capsys):
        out = tmp_path / "t.csv"
        kind = spec.partition(":")[0]
        assert main([
            "simulate", "model:pendulum:3", "--input", spec, "--out", str(out),
        ]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "parse_error",
                       "reason": f"signal '{kind}' needs parameter '{missing}'"}
        assert not out.exists()

    def test_bench_table_text(self, tmp_path, monkeypatch):
        rows = [
            {"n": 8, "energy": 0.1, "energy_var": 0.0, "total": 1 / 3},
            {"n": 96, "energy": 2.0000000000000004, "energy_var": 5e-324, "total": 12345.678},
        ]
        monkeypatch.setattr("nlbt.cli.run_bench", lambda sizes, **kw: rows)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "8,96", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,energy,energy_var,total"
        assert lines[1:] == [",".join("%.17g" % v for v in r.values()) for r in rows]
        back = np.loadtxt(out, delimiter=",", skiprows=1)
        npt.assert_array_equal(back, [list(r.values()) for r in rows])

    def test_bench_time_monotone(self, tmp_path):
        from nlbt.bench import run_bench

        rows = run_bench([4, 16], d_energy=3, repetitions=1, seed=0)
        assert rows[1]["total"] >= rows[0]["total"]
        assert all("energy_var" in r for r in rows)


WRITE_ARGV = {
    "export": ["export", "--model", "pendulum:3", "--out", "{out}"],
    "balance": ["balance", "--model", "pendulum:3", "--degree", "2", "--out", "{out}"],
    "reduce": ["reduce", "--artifact", "{art}", "-r", "1", "--out", "{out}"],
    "simulate": ["simulate", "model:pendulum:3", "--tspan", "0,0.5", "--samples", "5",
                 "--out", "{out}"],
    "compare": ["compare", "--reference", "model:pendulum:3", "--candidate", "model:pendulum:3",
                "--tspan", "0,0.5", "--samples", "5", "--out-prefix", "{out}"],
    "bench": ["bench", "--sizes", "4", "--degree", "2", "--out", "{out}"],
}


class TestWriteErrors:
    """An output that cannot be written is a write_error (exit 6), never a traceback."""

    @staticmethod
    def run(command, out, pendulum_run, tmp_path, capsys):
        """Run ``command`` writing to ``out``; the path of its first written file and the error."""
        art = tmp_path / "art.json"
        save_balance(pendulum_run[0], art)
        assert main([a.format(out=out, art=art) for a in WRITE_ARGV[command]]) == 6
        first = f"{out}_reference.csv" if command == "compare" else out
        return first, json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("command", list(WRITE_ARGV))
    def test_missing_parent_directory(self, command, pendulum_run, tmp_path, capsys):
        out = tmp_path / "missing" / "x"
        first, err = self.run(command, out, pendulum_run, tmp_path, capsys)
        assert err == {"error": "write_error",
                       "reason": f"cannot write '{first}': No such file or directory"}

    @pytest.mark.parametrize("command", list(WRITE_ARGV))
    def test_directory_as_output(self, command, pendulum_run, tmp_path, capsys):
        out = tmp_path / "x"
        # compare's first output is <prefix>_reference.csv
        (tmp_path / ("x_reference.csv" if command == "compare" else "x")).mkdir()
        first, err = self.run(command, out, pendulum_run, tmp_path, capsys)
        assert err == {"error": "write_error", "reason": f"cannot write '{first}': Is a directory"}

    @pytest.mark.parametrize(
        "argv",
        [["balance", "--file", "{missing}", "--degree", "2"],
         ["reduce", "--artifact", "{missing}", "-r", "1"],
         ["simulate", "file:{missing}"]],
        ids=["balance-file", "reduce-artifact", "simulate-file"],
    )
    def test_missing_input_is_still_parse_error(self, argv, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        args = [a.format(missing=missing) for a in argv] + ["--out", str(tmp_path / "o")]
        assert main(args) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "parse_error",
                       "reason": f"cannot read '{missing}': No such file or directory"}

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_full_device(self, capsys):
        # opening succeeds; the flush on closing fails, with no path attached
        assert main(["export", "--model", "pendulum:3", "--out", "/dev/full"]) == 6
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "write_error", "reason": "cannot write: No space left on device"}
