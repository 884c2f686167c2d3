import argparse
import json
import re
from importlib.resources import files
from pathlib import Path

import pytest

from enritch import cli, fileio, hull, parmet, verify
from enritch.cli import main
from enritch.diagonals import FiniteDiagonals, diagonal_quantaloid
from enritch.errors import InvariantError, SchemaError
from enritch.quantale import check_quantale_laws

from oracles import quantale_document

DATA = Path(str(files("enritch") / "data"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFileLoading:
    def test_quantale_round_trip(self):
        path = DATA / "lukasiewicz5.json"
        q = fileio.load_quantale(path)
        assert check_quantale_laws(q).passed
        assert quantale_document(q) == fileio.read_json(path)

    def test_space_and_radius_round_trip(self, tmp_path):
        space = fileio.load_space(DATA / "two_point_partial.json")
        assert space.points == ("a", "b")
        mu = fileio.load_radius_function(DATA / "mu_33.json", space)
        out = tmp_path / "mu.json"
        fileio.dump_radius_function(mu, space, out)
        assert fileio.load_radius_function(out, space) == mu

    def test_radius_function_alignment(self):
        space = fileio.load_space(DATA / "two_point_classical.json")
        mu = fileio.load_radius_function(DATA / "mu_13.json", space)
        assert [str(v) for v in mu.values] == ["1", "3"]

    def test_family_document(self):
        space = fileio.load_space(DATA / "two_point_classical.json")
        r, family = fileio.load_family(DATA / "family_no_witness.json", space)
        assert str(r) == "0"
        assert [(p, str(v)) for p, v in family] == [("a", "2"), ("b", "2")]

    def test_schema_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(SchemaError) as err:
            fileio.read_json(bad)
        assert "line 1" in str(err.value)
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"points": ["a"]}))
        with pytest.raises(SchemaError):
            fileio.load_space(missing)
        with pytest.raises(SchemaError):
            fileio.read_json(tmp_path / "nope.json")

    @pytest.mark.parametrize("alpha", [["01", "10"], [0, 1]])
    def test_space_rows_must_be_lists(self, capsys, tmp_path, alpha):
        doc = tmp_path / "space.json"
        doc.write_text(json.dumps({"points": ["a", "b"], "alpha": alpha}))
        with pytest.raises(SchemaError):
            fileio.load_space(doc)
        code, out, _ = run_cli(capsys, "hull", "member", str(doc), str(DATA / "mu_13.json"))
        assert code == 2
        assert json.loads(out)["result"]["error"] == "schema"

    def test_radius_function_name_mismatches(self, tmp_path):
        space = fileio.load_space(DATA / "two_point_classical.json")
        doc = tmp_path / "mu.json"
        doc.write_text(json.dumps({"r": "0", "values": {"a": "1"}}))
        with pytest.raises(SchemaError):
            fileio.load_radius_function(doc, space)
        doc.write_text(json.dumps({"r": "0", "values": {"a": "1", "b": "2", "zz": "3"}}))
        with pytest.raises(SchemaError):
            fileio.load_radius_function(doc, space)


class TestQuantaleCheckCommand:
    def test_bundled_instances_pass(self, capsys):
        for name in ("boolean", "lukasiewicz3", "lukasiewicz5", "nilmin5", "diamond"):
            code, out, err = run_cli(capsys, "quantale", "check", str(DATA / f"{name}.json"))
            assert code == 0, name
            report = json.loads(out)
            assert report["result"]["passed"] is True
            assert err.startswith("timing_ms=")

    def test_mutated_table_fails_with_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantale", "check", str(DATA / "mutated_lukasiewicz3.json")
        )
        assert code == 1
        report = json.loads(out)
        laws = {entry["law"]: entry for entry in report["result"]["laws"]}
        assert laws["tensor_associative"]["witness"] == "(0, 0, 1/2)"

    def test_schema_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        code, out, _ = run_cli(capsys, "quantale", "check", str(bad))
        assert code == 2
        assert json.loads(out)["result"]["error"] == "schema"

    @pytest.mark.parametrize(
        "key, value",
        [("elements", "01"), ("tensor", ["00", "01"]), ("involution", "01"), ("unit", ["1"])],
    )
    def test_malformed_tables_exit_2(self, capsys, tmp_path, key, value):
        doc = fileio.read_json(DATA / "boolean.json")
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for argv in (("quantale", "check", str(bad)),
                     ("verify", "l43", "--quantale", str(bad), "--bound", "1")):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 2, (key, argv)
            assert json.loads(out)["result"]["error"] == "schema"


class TestHullCommands:
    def test_member_pass_and_fail(self, capsys):
        space = str(DATA / "two_point_classical.json")
        code, out, _ = run_cli(capsys, "hull", "member", space, str(DATA / "mu_13.json"))
        assert code == 0
        assert json.loads(out)["result"] == {"tight": True, "failing_point": None}
        code, out, _ = run_cli(capsys, "hull", "member", space, str(DATA / "mu_23.json"))
        assert code == 1
        assert json.loads(out)["result"]["failing_point"] == "a"

    def test_tighten_writes_output(self, capsys, tmp_path):
        space = str(DATA / "two_point_classical.json")
        out_path = tmp_path / "tight.json"
        code, out, _ = run_cli(
            capsys, "hull", "tighten", space, str(DATA / "mu_33.json"),
            "--out", str(out_path),
        )
        assert code == 0
        written = json.loads(out_path.read_text())
        assert written == {"r": "0", "values": {"a": "1", "b": "3"}}
        # the written file must pass the member check
        code, _, _ = run_cli(capsys, "hull", "member", space, str(out_path))
        assert code == 0

    def test_tighten_precondition_exit(self, capsys, tmp_path):
        space = str(DATA / "two_point_classical.json")
        thin = tmp_path / "thin.json"
        thin.write_text(json.dumps({"r": "0", "values": {"a": "1", "b": "1"}}))
        code, out, _ = run_cli(capsys, "hull", "tighten", space, str(thin), "--out", str(tmp_path / "o.json"))
        assert code == 3
        assert json.loads(out)["result"]["error"] == "precondition"

    def test_tighten_invariant_exit(self, capsys, monkeypatch, tmp_path):
        # a sweep result that never passes the member check breaks the tightener
        monkeypatch.setattr(parmet, "tight_member", lambda space, mu: False)
        out_path = tmp_path / "tight.json"
        code, out, _ = run_cli(
            capsys, "hull", "tighten", str(DATA / "two_point_classical.json"),
            str(DATA / "mu_33.json"), "--out", str(out_path),
        )
        assert code == 5
        result = json.loads(out)["result"]
        assert result["error"] == "invariant"
        assert "did not reach a fixed point" in result["message"]
        assert not out_path.exists()

    def test_tighten_unwritable_output_is_a_schema_error(self, capsys, tmp_path):
        out_path = tmp_path / "no" / "such" / "dir" / "tight.json"
        code, out, _ = run_cli(
            capsys, "hull", "tighten", str(DATA / "two_point_classical.json"),
            str(DATA / "mu_33.json"), "--out", str(out_path),
        )
        assert code == 2
        result = json.loads(out)["result"]
        assert result["error"] == "schema"
        assert result["message"].startswith(f"cannot write {out_path}")

    def test_tighten_refuses_a_distance_str_cannot_write(self, capsys, tmp_path):
        # "1e5000" is a literal Fraction reads; its 5,001-digit numerator is
        # past the interpreter's int-to-string limit, so the report could
        # not be written.
        space = tmp_path / "far.json"
        space.write_text(json.dumps(
            {"points": ["a", "b"], "alpha": [["0", "1e5000"], ["1e5000", "0"]]}
        ))
        out_path = tmp_path / "tight.json"
        code, out, _ = run_cli(
            capsys, "hull", "tighten", str(space), str(DATA / "mu_33.json"),
            "--out", str(out_path),
        )
        assert code == 2
        result = json.loads(out)["result"]
        assert result["error"] == "schema"
        assert "more than" in result["message"] and "digits" in result["message"]
        assert not out_path.exists()

    def test_sigma_refuses_a_value_str_cannot_write(self, capsys, tmp_path):
        # Both radius functions are tight and each literal is admitted, but
        # sigma's denominator is the product of their 2,201-digit ones.
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"points": ["a", "b"], "alpha": [["0", "2"], ["2", "0"]]}))
        paths = []
        for digit in "73":
            a = int(digit * 2200 + "1")
            path = tmp_path / f"mu_{digit}.json"
            path.write_text(json.dumps({"r": "0", "values": {"a": f"1/{a}", "b": f"{2 * a - 1}/{a}"}}))
            code, out, _ = run_cli(capsys, "hull", "member", str(space), str(path))
            assert code == 0 and json.loads(out)["result"]["tight"]
            paths.append(str(path))
        code, out, _ = run_cli(capsys, "hull", "sigma", str(space), *paths)
        assert code == 4
        result = json.loads(out)["result"]
        assert result["error"] == "bound"
        assert "more than" in result["message"] and "digits" in result["message"]

    def test_sigma(self, capsys, tmp_path):
        space = str(DATA / "two_point_classical.json")
        other = tmp_path / "mu31.json"
        other.write_text(json.dumps({"r": "0", "values": {"a": "3", "b": "1"}}))
        code, out, _ = run_cli(
            capsys, "hull", "sigma", space, str(DATA / "mu_13.json"), str(other)
        )
        assert code == 0
        assert json.loads(out)["result"] == {"sigma": "2"}

    def test_sigma_non_tight_precondition(self, capsys):
        space = str(DATA / "two_point_classical.json")
        code, _, _ = run_cli(
            capsys, "hull", "sigma", space, str(DATA / "mu_33.json"), str(DATA / "mu_13.json")
        )
        assert code == 3

    def test_dense_fixtures(self, capsys):
        code, out, _ = run_cli(
            capsys, "hull", "dense",
            str(DATA / "two_point_classical.json"),
            str(DATA / "three_point_with_midpoint.json"),
            str(DATA / "map_into_midpoint.json"),
        )
        assert code == 0 and json.loads(out)["result"]["dense"] is True
        code, out, _ = run_cli(
            capsys, "hull", "dense",
            str(DATA / "one_point.json"),
            str(DATA / "discrete_pair.json"),
            str(DATA / "map_into_discrete.json"),
        )
        assert code == 1 and json.loads(out)["result"]["dense"] is False

    def test_dense_map_naming_unknown_points_is_a_schema_error(self, capsys, tmp_path):
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"map": {"a": "a", "b": "b", "zzz": "nowhere"}}))
        code, out, _ = run_cli(
            capsys, "hull", "dense",
            str(DATA / "two_point_classical.json"),
            str(DATA / "three_point_with_midpoint.json"),
            str(mapping),
        )
        assert code == 2
        result = json.loads(out)["result"]
        assert result == {"error": "schema", "message": "mapping names unknown points: ['zzz']"}

    def test_hyperfamily_outcomes(self, capsys):
        space = str(DATA / "two_point_classical.json")
        code, out, _ = run_cli(
            capsys, "hull", "hyperfamily", space, str(DATA / "family_no_witness.json")
        )
        assert code == 1
        assert json.loads(out)["result"]["witness"] is None
        code, out, _ = run_cli(
            capsys, "hull", "hyperfamily", space, str(DATA / "family_inadmissible.json")
        )
        assert code == 3
        assert json.loads(out)["result"]["violation"] == ["pair", "a", "b"]
        code, out, _ = run_cli(
            capsys, "hull", "hyperfamily",
            str(DATA / "three_point_with_midpoint.json"),
            str(DATA / "family_no_witness.json"),
        )
        assert code == 0
        assert json.loads(out)["result"]["witness"] == "m"

    def test_hyperfamily_self_ball(self, capsys):
        code, out, _ = run_cli(
            capsys, "hull", "hyperfamily",
            str(DATA / "two_point_partial.json"),
            str(DATA / "family_self_ball.json"),
        )
        assert code == 0
        assert json.loads(out)["result"]["witness"] == "a"

    def test_hyperfamily_strict_flag(self, capsys):
        # lax reading finds a witness; the strict reading requires a point
        # whose self-distance equals the base radius 0, and none exists
        space = str(DATA / "two_point_partial.json")
        family = str(DATA / "family_wide.json")
        code, out, _ = run_cli(capsys, "hull", "hyperfamily", space, family)
        assert code == 0
        assert json.loads(out)["result"]["witness"] == "a"
        code, out, _ = run_cli(
            capsys, "hull", "hyperfamily", space, family, "--strict-typing"
        )
        assert code == 1
        assert json.loads(out)["result"]["witness"] is None


class TestVerifyCommands:
    def test_t36_boolean(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "t36",
            "--quantale", str(DATA / "boolean.json"), "--bound", "3",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["categories"] == 23
        assert result["discrepancies"] == 0

    def test_l43_lukasiewicz_bound_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "l43",
            "--quantale", str(DATA / "lukasiewicz3.json"), "--bound", "2",
        )
        assert code == 0
        assert json.loads(out)["result"]["result"] is True

    def test_t54_boolean_bound_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "t54",
            "--quantale", str(DATA / "boolean.json"), "--bound", "2",
        )
        assert code == 0
        assert json.loads(out)["result"]["functors"] == 42

    def test_bound_refusal(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "t36",
            "--quantale", str(DATA / "boolean.json"), "--bound", "5",
        )
        assert code == 4
        assert json.loads(out)["result"]["error"] == "bound"

    def test_negative_bound_refused(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "t36",
            "--quantale", str(DATA / "boolean.json"), "--bound", "-1",
        )
        assert code == 4
        assert json.loads(out)["result"]["error"] == "bound"

    def test_lax_typing_breaks_the_chain(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "t36",
            "--quantale", str(DATA / "boolean.json"), "--bound", "1", "--lax-typing",
        )
        assert code == 1
        report = json.loads(out)
        assert report["result"]["discrepancies"] > 0
        assert report["witnesses"] is not None

    @pytest.mark.parametrize("suite", ["t44", "t54"])
    def test_lax_typing_refused_where_no_check_reads_it(self, capsys, monkeypatch, suite):
        def enumerate_nothing(*args):
            raise AssertionError("the refusal comes before the enumeration")

        monkeypatch.setattr(verify, "enumerate_symmetric_categories", enumerate_nothing)
        code, out, _ = run_cli(
            capsys, "verify", suite,
            "--quantale", str(DATA / "lukasiewicz3.json"), "--bound", "2", "--lax-typing",
        )
        assert code == 3
        result = json.loads(out)["result"]
        assert result["error"] == "precondition"
        assert result["message"] == (
            f"suite {suite} has no lax reading: witness typing applies to t36 and l43 only"
        )

    def test_broken_quantale_refused(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "t36",
            "--quantale", str(DATA / "mutated_lukasiewicz3.json"), "--bound", "1",
        )
        assert code == 3

    @pytest.mark.parametrize("suite", ["l43", "t44"])
    def test_lukasiewicz5_bound_2_frontier(self, capsys, suite):
        # every category here has a tight span of up to 13 members; the
        # search over the span's own tight columns must stay output-sensitive
        code, out, _ = run_cli(
            capsys, "verify", suite,
            "--quantale", str(DATA / "lukasiewicz5.json"), "--bound", "2",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["categories"] == 61
        assert result["discrepancies"] == 0

    def test_broken_tight_span_is_an_invariant_error(self, capsys, monkeypatch, boolean):
        # a span hom stuck at the bottom breaks the identities of the span
        monkeypatch.setattr(
            FiniteDiagonals,
            "residual_matrix",
            lambda dq, left, right: tuple(
                tuple(dq.hom_bottom(p, t) for t, _ in right) for p, _ in left
            ),
        )
        dq = diagonal_quantaloid(boolean)
        one = next(c for c in hull.enumerate_symmetric_categories(dq, 1) if len(c) == 1)
        with pytest.raises(InvariantError, match="the tight span must be a category"):
            hull.tight_span(one)
        code, out, _ = run_cli(
            capsys, "verify", "l43",
            "--quantale", str(DATA / "boolean.json"), "--bound", "1",
        )
        assert code == 5
        result = json.loads(out)["result"]
        assert result["error"] == "invariant"
        assert "the tight span must be a category" in result["message"]


class TestReportStability:
    def test_stdout_bytes_stable_across_runs(self, capsys):
        for args in [
            ("hull", "member",
             str(DATA / "two_point_classical.json"), str(DATA / "mu_13.json")),
            ("verify", "t54", "--quantale", str(DATA / "boolean.json"), "--bound", "2"),
        ]:
            _, first, _ = run_cli(capsys, *args)
            _, second, _ = run_cli(capsys, *args)
            assert first == second
            assert "timing" not in first

    def test_witnesses_reproduce(self, capsys, tmp_path):
        # a failing member check names a coordinate; re-checking the named
        # coordinate against the fixed point equation reproduces the failure
        space_path = DATA / "two_point_classical.json"
        code, out, _ = run_cli(
            capsys, "hull", "member", str(space_path), str(DATA / "mu_23.json")
        )
        assert code == 1
        name = json.loads(out)["result"]["failing_point"]
        space = fileio.load_space(space_path)
        mu = fileio.load_radius_function(DATA / "mu_23.json", space)
        from enritch.parmet import tight_violation

        assert tight_violation(space, mu) == name


class TestParserReuse:
    SEQUENCE = [
        ("hull",),
        ("--help",),
        ("verify", "bogus"),
        ("hull", "member", str(DATA / "two_point_classical.json"), str(DATA / "mu_13.json")),
        ("hull",),
    ]

    @staticmethod
    def outcome(capsys, argv):
        """Exit code, stdout and stderr (timing masked) of one ``main`` call."""
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, re.sub(r"timing_ms=\d+", "timing_ms=N", captured.err)

    def test_one_parser_answers_like_a_fresh_one(self, capsys, monkeypatch):
        builds = []
        init = argparse.ArgumentParser.__init__

        def spy(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            if parser.prog == "enritch":  # subparsers are named "enritch ..."
                builds.append(parser)

        cached = cli._build_parser
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cached.cache_clear()
        try:
            reused = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
            assert len(builds) == 1
            monkeypatch.setattr(cli, "_build_parser", cached.__wrapped__)
            fresh = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
            assert len(builds) == 1 + len(self.SEQUENCE)
        finally:
            cached.cache_clear()
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 0, 2, 0, 2]
        assert reused[0] == reused[-1]
        assert reused[0][2].startswith("usage: enritch hull")
        assert reused[1][1].startswith("usage: enritch")
        assert "invalid choice: 'bogus'" in reused[2][2]
        assert json.loads(reused[3][1])["result"] == {"tight": True, "failing_point": None}
