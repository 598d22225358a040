import json

import pytest

from mzvff import cli, polyring
from mzvff.cli import main
from mzvff.exactalg import FactoredRational, render_rational

SPEC_DIR = "specs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClosedForm:
    def test_poly_depth2(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--ring", "poly", "--q", "2", "--depth", "2")
        assert code == 0
        assert out == "1/((1 - 4*x1*x2)(1 - 2*x2))\n"

    def test_rational_depth1(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--ring", "rational", "--q", "2", "--depth", "1")
        assert code == 0
        assert out == "1/((1 - x1)(1 - 2*x1))\n"

    def test_genus_requires_depth2(self, capsys):
        code, _, err = run(
            capsys, "closed-form", "--ring", "genus",
            "--spec", f"{SPEC_DIR}/genus1_q5.json", "--depth", "3",
        )
        assert code == 2
        assert "depth 2 only" in err

    def test_genus_depth2(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "--ring", "genus",
            "--spec", f"{SPEC_DIR}/genus1_q5.json", "--depth", "2",
        )
        assert code == 0
        assert "u" in out and "v" in out

    def test_malformed_spec_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"q": 5, "genus": 1, "class_number": 4, "b": [2]}')
        code, _, err = run(
            capsys, "closed-form", "--ring", "genus", "--spec", str(path), "--depth", "2"
        )
        assert code == 3
        assert "b" in err

    @pytest.mark.parametrize(
        "content, code", [(None, 2), (b'{"q": 5, "genus": 1', 3), (b"\xff\xfe{}", 3)]
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("closed-form", "--ring", "genus", "--depth", "2"),
            ("series", "--ring", "genus", "--depth", "2", "--trunc", "2"),
            ("verify", "--only", "fieldspec"),
        ],
    )
    def test_unreadable_or_truncated_spec(self, capsys, tmp_path, command, content, code):
        # a missing file is a usage error; truncated JSON or non-UTF-8 bytes
        # are an invalid spec document
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_bytes(content)
        exit_code, out, err = run(capsys, *command, "--spec", str(path))
        assert exit_code == code
        assert out == ""
        assert err.startswith("error: ")
        assert ("invalid field spec: document" in err) == (code == 3)

    def test_missing_q_is_usage_error(self, capsys):
        code, _, err = run(capsys, "closed-form", "--ring", "poly", "--depth", "2")
        assert code == 2

    def test_rational_depth_over_budget_exits_4(self, capsys):
        code, out, err = run(
            capsys, "closed-form", "--ring", "rational", "--q", "3", "--depth", "12"
        )
        assert code == 4
        assert out == ""
        assert "closed form at depth 12" in err and "budget" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "--ring", "poly", "--q", "3", "--depth", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        value = FactoredRational.from_dict(payload["value"])
        assert render_rational(value) == payload["text"]
        assert value.to_dict() == payload["value"]

    def test_deterministic_output(self, capsys):
        args = ("closed-form", "--ring", "rational", "--q", "3", "--depth", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestSeries:
    def test_poly_trunc1(self, capsys):
        code, out, _ = run(
            capsys, "series", "--ring", "poly", "--q", "2", "--depth", "2", "--trunc", "1"
        )
        assert code == 0
        assert out == "1: 1\nx2: 2\nx1*x2: 4\n"

    def test_oracle_matches_closed(self, capsys):
        base = ("series", "--ring", "poly", "--q", "2", "--depth", "2", "--trunc", "3")
        _, closed, _ = run(capsys, *base, "--source", "closed")
        _, audit, _ = run(capsys, *base, "--source", "oracle")
        assert closed == audit

    def test_rational_oracle_matches_closed(self, capsys):
        base = ("series", "--ring", "rational", "--q", "3", "--depth", "2", "--trunc", "4")
        _, closed, _ = run(capsys, *base, "--source", "closed")
        _, audit, _ = run(capsys, *base, "--source", "oracle")
        assert closed == audit

    def test_genus_series_includes_u_coefficient(self, capsys):
        code, out, _ = run(
            capsys, "series", "--ring", "genus", "--spec", f"{SPEC_DIR}/genus1_q5.json",
            "--depth", "2", "--trunc", "2",
        )
        assert code == 0
        assert "u: 16" in out.splitlines()

    def test_genus_oracle_matches_closed(self, capsys):
        base = (
            "series", "--ring", "genus", "--spec", f"{SPEC_DIR}/genus2_q2.json",
            "--depth", "2", "--trunc", "3",
        )
        _, closed, _ = run(capsys, *base, "--source", "closed")
        _, audit, _ = run(capsys, *base, "--source", "oracle")
        assert closed == audit

    def test_genus_depth3_closed_refused(self, capsys):
        code, _, err = run(
            capsys, "series", "--ring", "genus", "--spec", f"{SPEC_DIR}/genus1_q5.json",
            "--depth", "3", "--trunc", "2",
        )
        assert code == 2
        assert "depth 2 only" in err

    def test_genus_depth3_oracle_allowed(self, capsys):
        code, out, _ = run(
            capsys, "series", "--ring", "genus", "--spec", f"{SPEC_DIR}/genus1_q5.json",
            "--depth", "3", "--trunc", "1", "--source", "oracle",
        )
        assert code == 0
        assert "x1*x2*x3: " in out

    def test_budget_exceeded_exits_4(self, capsys, monkeypatch):
        monkeypatch.setenv("MZVFF_BUDGET", "10")
        code, _, err = run(
            capsys, "series", "--ring", "poly", "--q", "5", "--depth", "2",
            "--trunc", "4", "--source", "oracle",
        )
        assert code == 4
        assert "budget" in err

    def test_series_box_over_budget_exits_4(self, capsys):
        code, out, err = run(
            capsys, "series", "--ring", "poly", "--q", "2", "--depth", "6", "--trunc", "64",
        )
        assert code == 4
        assert out == ""
        assert "series box" in err and "budget" in err

    def test_l_polynomial_spec_document(self, capsys):
        base = ("series", "--ring", "genus", "--depth", "2", "--trunc", "2")
        _, from_counts, _ = run(capsys, *base, "--spec", f"{SPEC_DIR}/genus1_q5.json")
        _, from_l, _ = run(capsys, *base, "--spec", f"{SPEC_DIR}/genus1_q5_L.json")
        assert from_counts == from_l

    def test_spec_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"q": 5, "genus": 1, "class_number": 4, "b": [1]}')
        )
        code, from_stdin, _ = run(
            capsys, "series", "--ring", "genus", "--spec", "-", "--depth", "2", "--trunc", "2"
        )
        assert code == 0
        _, from_file, _ = run(
            capsys, "series", "--ring", "genus", "--spec", f"{SPEC_DIR}/genus1_q5.json",
            "--depth", "2", "--trunc", "2",
        )
        assert from_stdin == from_file


class TestEuler:
    def test_depth1_q2(self, capsys):
        code, out, _ = run(
            capsys, "euler", "--q", "2", "--depth", "1", "--max-degree", "2", "--trunc", "2"
        )
        assert code == 0
        assert out == "1: 1\nx1: 2\nx1^2: 4\n"

    def test_matches_closed_form_on_exact_box(self, capsys):
        code, out, _ = run(capsys, "euler", "--q", "3", "--depth", "2", "--max-degree", "2")
        assert code == 0
        from mzvff.polyring import PolyZetaContext, euler_agreement_box

        reference = polyring.closed_form_poly(PolyZetaContext(3, 2)).series(4)
        lines = dict(
            line.split(": ") for line in out.strip().splitlines()
        )
        from mzvff.exactalg import render_monomial

        for exps in euler_agreement_box(2, 2):
            key = render_monomial(exps, ["x1", "x2"])
            assert lines.get(key, "0") == str(reference.coefficient(exps))

    def test_nonprime_exits_2(self, capsys):
        code, _, err = run(capsys, "euler", "--q", "4", "--depth", "1", "--max-degree", "2")
        assert code == 2
        assert "prime" in err


class TestResidue:
    def test_pole_w1(self, capsys):
        code, out, _ = run(capsys, "residue", "--q", "3", "--pole", "w=1")
        assert code == 0
        assert out == "1/(1 - 3*x1) × 1/log(3)\n"

    def test_pole_sw2_in_s(self, capsys):
        code, out, _ = run(capsys, "residue", "--q", "3", "--pole", "s+w=2", "--in", "s")
        assert code == 0
        assert out == "1/(1 - 3*x2) × 1/log(3)\n"

    def test_pole_sw2_in_w(self, capsys):
        code, out, _ = run(capsys, "residue", "--q", "3", "--pole", "s+w=2", "--in", "w")
        assert code == 0
        assert out == "1/(1 - 3^(s-1)) × 1/log(3)\n"

    def test_unsupported_pole_exits_2(self, capsys):
        code, _, err = run(capsys, "residue", "--q", "3", "--pole", "w=0")
        assert code == 2


class TestVerify:
    def test_involution_grid_count(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--only", "involution", "--q", "2,3", "--depth", "1..3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "6/6 checks passed"
        assert all(line.startswith("PASS involution") for line in lines[:-1])

    def test_corrupted_closed_form_fails_named_check(self, capsys, monkeypatch):
        from mzvff.exactalg import LaurentPolynomial, QPowerFactor

        def corrupted(ctx):
            # drop one denominator atom: the series no longer matches
            return FactoredRational(
                ctx.q, LaurentPolynomial.one(ctx.depth),
                [QPowerFactor(ctx.depth, tuple([1] * ctx.depth))],
            )

        monkeypatch.setattr(polyring, "closed_form_poly", corrupted)
        code, out, _ = run(capsys, "verify", "--only", "series-poly", "--q", "2", "--depth", "2")
        assert code == 1
        assert any(line.startswith("FAIL series-poly") for line in out.splitlines())

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--only", "mixed-relation", "--q", "2,3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["total"] == 2
        assert all(r["check"] == "mixed-relation" for r in payload["results"])

    def test_spec_flag_adds_spec(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--only", "fieldspec", "--spec", f"{SPEC_DIR}/genus1_q7.json"
        )
        assert code == 0
        assert "cli:" in out

    def test_trunc_filter_threads_through(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--only", "series-poly", "--q", "2", "--depth", "2",
            "--trunc", "5",
        )
        assert code == 0
        assert "trunc=5" in out

    def test_list_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--list")
        assert code == 0
        assert "involution" in out.split()

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "no-such-check")
        assert code == 2


class TestParserReuse:
    COMMANDS = [
        ("closed-form", "--ring", "rational", "--q", "3", "--depth", "2", "--format", "json"),
        ("closed-form", "--ring", "rational", "--q", "3", "--depth", "2"),
        ("series", "--ring", "poly", "--q", "2", "--depth", "2", "--trunc", "3"),
        ("closed-form", "--ring", "poly", "--depth", "2"),  # no --q: usage error
        ("verify", "--only", "involution", "--q", "2", "--depth", "1..2", "--format", "json"),
        ("series", "--ring", "poly", "--depth", "2", "--trunc"),  # argparse error
        ("residue", "--q", "2", "--pole", "w=1", "--format", "json"),
        ("verify", "--only", "involution", "--q", "2", "--depth", "1..2"),
        ("series", "--ring", "rational", "--q", "2", "--depth", "1", "--trunc", "2",
         "--source", "oracle"),
        ("series", "--ring", "rational", "--q", "2", "--depth", "1", "--trunc", "2"),
    ]

    def test_shared_parser_matches_fresh_parser(self, capsys):
        fresh = []
        for argv in self.COMMANDS:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv)[:2])
        cli._parser.cache_clear()
        shared = [run(capsys, *argv)[:2] for argv in self.COMMANDS]
        assert cli._parser.cache_info().misses == 1
        assert shared == fresh
        assert [code for code, _ in shared] == [0, 0, 0, 2, 0, 2, 0, 0, 0, 0]
