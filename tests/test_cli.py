import json
import random
from fractions import Fraction

import pytest

from polylog import harmonic
from polylog.cli import (
    ExprTypeError,
    ParseError,
    Scalar,
    _make_parser,
    main,
    ncpoly_expr_text,
    parse,
    parse_value,
    x1star_expr_text,
)
from polylog.nc_core import NCPoly, Word, X, Y, x_word, y_word
from polylog.products import stuffle
from polylog.stars import PlaneStar, X1StarPoly

F = Fraction


class TestParser:
    def test_stuffle_application(self):
        value = parse_value("st(y1, y1)")
        assert value == stuffle(NCPoly.from_word(y_word(1)), NCPoly.from_word(y_word(1)))

    def test_star_combination(self):
        assert parse_value("star(2) - star(1)") == X1StarPoly({2: 1, 1: -1})

    def test_scaled_star(self):
        assert parse_value("12*star(5) - 33*star(4)") == X1StarPoly({5: 12, 4: -33})

    def test_type_error_stuffle_alphabet(self):
        with pytest.raises(ExprTypeError):
            parse_value('st("01", y1)')

    def test_xword_literal(self):
        assert parse_value('"011"') == NCPoly.from_word(x_word("011"))

    def test_yword_literal(self):
        assert parse_value("y2y1") == NCPoly.from_word(y_word(2, 1))

    def test_rational_scalar(self):
        assert parse_value("3/4") == Scalar(F(3, 4))

    def test_scalar_plus_poly_embeds_unit(self):
        value = parse_value("y1 + 1")
        assert value == NCPoly.from_word(y_word(1)) + NCPoly.one(Y)

    def test_plane_star_literal(self):
        assert parse_value("[1,1/2]*") == PlaneStar.make([1, F(1, 2)])

    def test_plane_star_stuffle(self):
        assert parse_value("st([1]*, [1]*)") == PlaneStar.make([2, 1])

    def test_pix_piy(self):
        assert parse_value("pix(y2)") == NCPoly.from_word(x_word("01"))
        assert parse_value('piy("01")') == NCPoly.from_word(y_word(2))

    def test_conc(self):
        assert parse_value("conc(y1, y2)") == NCPoly.from_word(y_word(1, 2))

    def test_exps(self):
        value = parse_value("exps(y1, 2)")
        expected = (
            NCPoly.one(Y)
            + NCPoly.from_word(y_word(1))
            + NCPoly.from_word(y_word(1, 1))
            + NCPoly.from_word(y_word(2)) * F(1, 2)
        )
        assert value == expected

    def test_unary_minus(self):
        assert parse_value("-y1 + y1") == NCPoly.zero(Y)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("star(2) +")
        assert "position" in str(exc.value)

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse("frob(y1)")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("y1 y2 y3 )")

    def test_scale_plane_star_rejected(self):
        with pytest.raises(ExprTypeError):
            parse_value("2*[1]*")


def _random_ncpoly(rng, alphabet):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        n = rng.randint(0, 3)
        if alphabet == X:
            letters = tuple(rng.randint(0, 1) for _ in range(n))
        else:
            letters = tuple(rng.randint(1, 3) for _ in range(n))
        w = Word(letters, alphabet)
        terms[w] = terms.get(w, F(0)) + F(rng.randint(-7, 7), rng.randint(1, 4))
    return NCPoly(alphabet, terms)


class TestPrintParseRoundtrip:
    def test_ncpoly_roundtrip(self):
        rng = random.Random(101)
        for _ in range(40):
            for alphabet in (X, Y):
                p = _random_ncpoly(rng, alphabet)
                if not p:
                    continue
                text = ncpoly_expr_text(p)
                value = parse_value(text)
                if isinstance(value, Scalar):
                    # a pure constant loses its alphabet in text form
                    assert p == NCPoly.one(alphabet) * value.value
                else:
                    assert value == p

    def test_x1star_roundtrip(self):
        rng = random.Random(103)
        for _ in range(40):
            terms = {
                rng.randint(0, 5): F(rng.randint(-9, 9), rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            }
            s = X1StarPoly(terms)
            if not s:
                continue
            value = parse_value(x1star_expr_text(s))
            if isinstance(value, Scalar):
                assert s == X1StarPoly({0: value.value})
            else:
                assert value == s


class TestPrintedForms:
    """Golden strings: every term printer writes the same signed-sum format."""

    @pytest.mark.parametrize(
        "value,printed,expr_text",
        [
            (
                NCPoly(X, {Word((), X): F(-3, 2), x_word("1"): -1, x_word("01"): 1, x_word("011"): F(2, 3)}),
                "-3/2 - x1 + x0x1 + 2/3*x0x1x1",
                '-3/2 - "1" + "01" + 2/3*"011"',
            ),
            (
                NCPoly(Y, {Word((), Y): -2, y_word(2, 1): -1, y_word(3): F(1, 2), y_word(1): 1}),
                "-2 + y1 + 1/2*y3 - y2y1",
                "-2 + y1 + 1/2*y3 - y2y1",
            ),
            (NCPoly(Y, {y_word(1): -1, y_word(1, 1): 1}), "-y1 + y1y1", "-y1 + y1y1"),
            (NCPoly.zero(X), "0", "0"),
            (X1StarPoly({3: -1, 1: 1, 0: -2}), "-star(3) + star(1) - 2", "-star(3) + star(1) - 2"),
            (X1StarPoly({2: F(-1, 2), 0: 1}), "-1/2*star(2) + 1", "-1/2*star(2) + 1"),
            (X1StarPoly(), "0", "0"),
            (harmonic.NPoly([-2, 1, 0, -1, F(1, 2)]), "1/2*N^4 - N^3 + N - 2", None),
            (harmonic.NPoly([0, -1]), "-N", None),
            (harmonic.NPoly([F(-1, 3)]), "-1/3", None),
            (harmonic.NPoly(), "0", None),
        ],
    )
    def test_str_and_expression_text(self, value, printed, expr_text):
        assert str(value) == printed
        if isinstance(value, NCPoly):
            assert ncpoly_expr_text(value) == expr_text
        elif isinstance(value, X1StarPoly):
            assert x1star_expr_text(value) == expr_text

    @pytest.mark.parametrize(
        "argv,text",
        [
            (
                ["shuffle", '2*"01" - "1" + 3', '-"1" + 1/2'],
                '3/2 - 7/2*"1" + "01" + 2*"11" - 4*"011" - 2*"101"',
            ),
            (
                ["stuffle", "y1 - y2", "-y1y1 + 2 - 1/3*y3"],
                "2*y1 - 2*y2 - 1/3*y4 + 1/3*y5 - y1y2 + 2/3*y1y3 - y2y1 + 1/3*y2y3"
                " + 2/3*y3y1 + 1/3*y3y2 - 3*y1y1y1 + y1y1y2 + y1y2y1 + y2y1y1",
            ),
            (["stuffle", "0", "y2"], "0"),
            (["stuffle", "-3", "y1 + 1"], "-3 - 3*y1"),
            (["shuffle", "star(2) - 1", "star(1) + 3*star(3)"], "3*star(5) - 2*star(3) - star(1)"),
            (["neg-li", "-1"], "star(2) - star(1)"),
            (["neg-li", "0,0"], "star(2) - 2*star(1) + 1"),
            (["neg-li", ""], "1"),
            (["h-closed-form", "-2,-1"], "1/10*N^5 + 1/8*N^4 - 1/12*N^3 - 1/8*N^2 - 1/60*N"),
            (["h-closed-form", "1/2 - star(1)"], "-N - 1/2"),
        ],
    )
    def test_cli_text_fields(self, capsys, argv, text):
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stars_text" if argv[0] == "neg-li" else "text"] == text


class TestCommands:
    def _run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_parser_built_once(self):
        assert _make_parser() is _make_parser()

    def test_shared_parser_resets_flags(self, capsys):
        code, out = self._run(capsys, "li-coeffs", "(2)", "3", "--float")
        assert code == 0 and json.loads(out)["mode"] == "float"
        code, out = self._run(capsys, "li-coeffs", "(2)", "3")
        assert code == 0
        assert json.loads(out) == {"mode": "exact", "coeffs": ["0", "1", "1/4", "1/9"]}
        code, out = self._run(capsys, "h-closed-form", "-1", "--csv")
        assert code == 0 and out.splitlines() == ["degree,coefficient", "0,0", "1,1/2", "2,1/2"]
        code, out = self._run(capsys, "h-closed-form", "-1")
        assert code == 0 and json.loads(out)["coeffs"] == ["0", "1/2", "1/2"]

    def test_valid_request_after_usage_error(self, capsys):
        code, out = self._run(capsys, "h-eval", "(1)")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "ArgumentError"
        code, out = self._run(capsys, "h-eval", "(-2,-1)", "3")
        assert code == 0 and json.loads(out) == "31"

    def test_unknown_subcommand_is_json_error(self, capsys):
        code, out = self._run(capsys, "bogus")
        error = json.loads(out)["error"]
        assert code == 2 and error["code"] == "ArgumentError" and "bogus" in error["message"]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["h-eval", "--help"])
        assert exc.value.code == 0
        assert "usage: polylog h-eval" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [("h-closed-form", "-1/3"), ("stuffle", "-[1]*", "y1"), ("li-coeffs", "(2)", "-3")],
    )
    def test_dash_arguments_are_positionals(self, capsys, argv):
        # "-" followed by anything but a letter or "-" reads as it does after "--"
        code, out = self._run(capsys, *argv)
        code_sep, out_sep = self._run(capsys, argv[0], "--", *argv[1:])
        assert (code, out) == (code_sep, out_sep)
        assert "ArgumentError" not in out

    def test_dash_positional_answers(self, capsys):
        code, out = self._run(capsys, "h-closed-form", "-1/3")
        assert code == 0 and json.loads(out) == {"coeffs": ["-1/3"], "text": "-1/3"}
        code, out = self._run(capsys, "stuffle", "-[1]*", "y1")
        assert code == 2 and json.loads(out)["error"]["code"] == "ExprTypeError"

    def test_li_coeffs_deep_index(self, capsys, monkeypatch):
        # from an empty cache; N below the depth gives the zero column without recursion
        monkeypatch.setattr(harmonic, "_HVEC_CACHE", {})
        index = "(" + ",".join(["1"] * 1200) + ")"
        code, out = self._run(capsys, "li-coeffs", index, "3")
        assert code == 0
        assert json.loads(out) == {"mode": "exact", "coeffs": ["0", "0", "0", "0"]}

    def test_neg_li_example(self, capsys):
        code, out = self._run(capsys, "neg-li", "-2,-1")
        payload = json.loads(out)
        assert code == 0
        assert payload["ratfunc"] == {
            "num": ["0", "0", "4", "7", "1"],
            "pole_order": 5,
        }
        assert payload["stars"] == {"5": "12", "4": "-33", "3": "31", "2": "-11", "1": "1"}

    def test_h_eval_example(self, capsys):
        code, out = self._run(capsys, "h-eval", "(-2,-1)", "3")
        assert code == 0
        assert json.loads(out) == "31"

    def test_shuffle_command(self, capsys):
        code, out = self._run(capsys, "shuffle", '"0"', '"1"')
        payload = json.loads(out)
        assert code == 0
        assert payload["terms"] == {"01": "1", "10": "1"}

    def test_stuffle_type_error_exit_code(self, capsys):
        code, out = self._run(capsys, "stuffle", '"01"', "y1")
        assert code == 2
        assert "error" in json.loads(out)

    def test_neg_li_rejects_positive(self, capsys):
        code, out = self._run(capsys, "neg-li", "2")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["code"] == "InvalidIndexError"

    def test_h_closed_form_star_expr(self, capsys):
        code, out = self._run(capsys, "h-closed-form", "star(2) - star(1)")
        payload = json.loads(out)
        assert code == 0
        assert payload["coeffs"] == ["0", "1/2", "1/2"]

    def test_h_closed_form_index(self, capsys):
        code, out = self._run(capsys, "h-closed-form", "0")
        assert json.loads(out)["coeffs"] == ["0", "1"]

    def test_h_closed_form_csv(self, capsys):
        code, out = self._run(capsys, "h-closed-form", "--csv", "star(1)")
        assert out.splitlines() == ["degree,coefficient", "0,1", "1,1"]

    def test_li_coeffs(self, capsys):
        code, out = self._run(capsys, "li-coeffs", "2", "4")
        payload = json.loads(out)
        assert payload == {"mode": "exact", "coeffs": ["0", "1", "1/4", "1/9", "1/16"]}

    def test_li_coeffs_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYLOG_NCAP_DEFAULT", "3")
        code, out = self._run(capsys, "li-coeffs", "1")
        assert len(json.loads(out)["coeffs"]) == 4

    def test_li_eval(self, capsys):
        code, out = self._run(capsys, "li-eval", "1", "0.5", "1e-10")
        payload = json.loads(out)
        assert abs(payload["re"] - 0.6931471805599453) <= 1e-10
        assert payload["im"] == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("li-eval", "-200", "0.5", "1e-6"),
            ("li-coeffs", "-400", "60", "--float"),
        ],
    )
    def test_float_overflow_is_json_error(self, capsys, argv):
        code, out = self._run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "PrecisionError"

    @pytest.mark.parametrize(
        "argv",
        [
            ("li-eval", "-60,-60", "0.5", "1e-6"),
            ("li-coeffs", "-60,-60", "400", "--float"),
        ],
    )
    def test_float_overflow_by_multiplication_is_strict_json_error(self, capsys, argv):
        # finite powers whose products reach inf: NaN or Infinity is not JSON
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code, out = self._run(capsys, *argv)
        assert code == 2
        assert json.loads(out, parse_constant=reject)["error"]["code"] == "PrecisionError"

    def test_verify_stirling_suite(self, capsys):
        code, out = self._run(capsys, "verify", "--suite", "stirling")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_verify_json_output(self, capsys):
        code, out = self._run(capsys, "verify", "--suite", "stirling", "--json")
        report = json.loads(out)
        assert code == 0
        assert all(entry["status"] == "pass" for entry in report)

    def test_verify_mixed_with_ncap(self, capsys):
        code, out = self._run(capsys, "verify", "--suite", "mixed", "--ncap", "10")
        assert code == 0

    def test_verify_fails_nonzero(self, capsys, monkeypatch):
        import polylog.cli as cli

        def broken(ncap, seed):
            return [cli.CheckResult("always-fails", False, "forced")]

        monkeypatch.setitem(cli.SUITES, "stirling", broken)
        code, out = self._run(capsys, "verify", "--suite", "stirling")
        assert code == 1
        assert "FAIL" in out

    def test_nested_function_calls(self):
        value = parse_value('st(piy("01"), exps(y1, 2))')
        from polylog.coding import pi_y
        from polylog.products import exp_stuffle

        expected = stuffle(
            pi_y(NCPoly.from_word(x_word("01"))),
            exp_stuffle(NCPoly.from_word(y_word(1)), 2),
        )
        assert value == expected

    def test_multidigit_y_indices(self):
        assert parse_value("y12y3") == NCPoly.from_word(y_word(12, 3))

    def test_suites_deterministic_for_fixed_seed(self):
        from polylog.cli import suite_stars

        first = [(r.name, r.passed) for r in suite_stars(seed=7)]
        second = [(r.name, r.passed) for r in suite_stars(seed=7)]
        assert first == second
