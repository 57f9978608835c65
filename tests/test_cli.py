import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from polylog import checks, harmonic, polylog_num, products
from polylog.cli import (
    MAX_DIGITS,
    MAX_EXPS_CAP,
    MAX_STAR_ORDER,
    ExprTypeError,
    ParseError,
    Scalar,
    _make_parser,
    evaluate,
    main,
    ncpoly_expr_text,
    parse,
    parse_value,
    value_to_json,
)
from polylog.nc_core import NCPoly, NPoly, Word, X, Y, x_word, y_word
from polylog.products import stuffle
from polylog.stars import PlaneStar, X1StarPoly

F = Fraction
# a fresh interpreter imports this checkout's package first and keeps the rest of PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_FRESH_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
# CPython builds before 3.10.7 have no int-to-str digit limit
_needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)


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

    @pytest.mark.parametrize("src,pos", [("-[1]*", 0), ("- - [1]*", 2), ("- -  - [1]*", 5)])
    def test_run_of_signs_rejects_plane_star_at_last_sign(self, src, pos):
        with pytest.raises(ExprTypeError) as exc:
            parse_value(src)
        assert str(exc.value) == f"at position {pos}: cannot scale a plane star"

    @pytest.mark.parametrize(
        "src,message",
        [
            ('y1 + "01"', "at position 3: cannot combine a Y-polynomial with a X-polynomial"),
            ("star(1) + y1", "at position 8: cannot add star combination and Y-polynomial"),
            ("[1]* + [1]*", "at position 5: cannot add plane star and plane star"),
            ('1 + y1 + "01"', "at position 7: cannot combine a Y-polynomial with a X-polynomial"),
            ('y1 + "01" + st("01", y1)', "at position 3: cannot combine a Y-polynomial with a X-polynomial"),
            ("y1 + sh(star(1), y1)", "at position 5: sh mixes star combinations with other values"),
            ("conc(star(1), 2)", "at position 0: conc needs polynomial operands"),
            ("st([1,2]*, y1)", "at position 0: st on a plane star needs two plane stars"),
            ("exps(y1, 1/2)", "at position 0: exps(P, cap) needs a natural-number cap"),
        ],
        ids=[
            "y-plus-x", "star-plus-y", "plane-plus-plane", "second-operator", "before-later-terms",
            "sh-of-star-and-word", "conc-of-star", "st-of-plane-and-word", "exps-cap",
        ],
    )
    def test_sum_type_errors_name_their_operator(self, src, message):
        # a flat sum raises where adding left to right would, before later terms are evaluated;
        # a function raises at its name
        with pytest.raises(ExprTypeError) as exc:
            parse_value(src)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "src,message,pos",
        [
            ("y1 + @y2", "unexpected character '@'", 5),
            ("[y1]*", "expected a rational number", 1),
            ("y1 y2 )", "unexpected trailing input 'y2'", 3),
            ("frob(y1)", "unknown name 'frob'", 0),
            ("sh(y1)", "sh takes 2 argument(s), got 1", 0),
            ("2/y1", "expected a denominator", 2),
            ("star(y1)", "star(k) needs a natural number", 5),
            ("sh(y1, y2", "expected ')', found 'end of input'", 9),
            ("y1 +", "expected a word, star, plane star, or function, found 'end of input'", 4),
            ("1/0 + y1", "zero denominator", 2),
        ],
        ids=[
            "character", "plane-entry", "trailing", "unknown-name", "arity", "denominator",
            "star-order", "unclosed", "end-of-input", "zero-denominator",
        ],
    )
    def test_parse_errors_name_their_position(self, src, message, pos):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert str(exc.value) == f"at position {pos}: {message}" and exc.value.pos == pos

    def test_json_of_a_rational_and_of_a_non_value(self):
        assert value_to_json(parse_value("-3/4")) == {"type": "rational", "value": "-3/4"}
        with pytest.raises(TypeError, match="cannot serialize 3"):
            value_to_json(3)
        with pytest.raises(TypeError, match="not an expression node"):
            evaluate(("frob", 1))

    def test_mixed_sums(self):
        assert parse_value("1 - 2 + 3/4") == Scalar(F(-1, 4))
        assert parse_value("1 + y1 - 1") == NCPoly.from_word(y_word(1))
        assert parse_value("y1 + y1 + y2 - 2*y1") == NCPoly.from_word(y_word(2))
        assert parse_value("2 - star(1) + star(1)") == X1StarPoly({0: 2})


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
            value = parse_value(str(s))
            if isinstance(value, Scalar):
                assert s == X1StarPoly({0: value.value})
            else:
                assert value == s

    def test_property_print_parse_print(self):
        # every printable value: its text parses back to it and prints the same again
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=7)

        def polys(alphabet, letters):
            word = st.lists(letters, max_size=4).map(lambda w: Word(tuple(w), alphabet))
            return st.lists(st.tuples(word, coeff), max_size=5).map(lambda ts: NCPoly(alphabet, ts))

        values = st.one_of(
            polys(X, st.sampled_from([0, 1])),
            polys(Y, st.integers(1, 12)),
            st.dictionaries(st.integers(0, 12), coeff, max_size=5).map(X1StarPoly),
            st.lists(coeff, min_size=1, max_size=4).map(PlaneStar.make),
        )

        @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hyp.given(values)
        def check(value):
            printed = value_to_json(value)
            parsed = parse_value(printed["text"])
            if isinstance(parsed, Scalar):  # a constant prints as a bare rational
                unit = NCPoly.one(value.alphabet) if isinstance(value, NCPoly) else X1StarPoly({0: 1})
                parsed = unit * parsed.value
            assert parsed == value
            assert value_to_json(parsed)["text"] == printed["text"]
            if isinstance(value, NCPoly):
                assert printed["terms"] == value.to_terms_text()
            elif isinstance(value, X1StarPoly):
                assert X1StarPoly({int(k): F(c) for k, c in printed["stars"].items()}) == value

        check()


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
            assert str(value) == expr_text

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
            (["shuffle", "star(1)+sh(star(1),star(2))", "1"], "star(3) + star(1)"),
            (["stuffle", "y1 - exps(y1, 2) + 1/2*exps(y2, 2)", "1"], "-1/2 - y1y1"),
        ],
    )
    def test_cli_text_fields(self, capsys, argv, text):
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stars_text" if argv[0] == "neg-li" else "text"] == text


# a request in a fresh process: (the module it imports, a check of its stdout)
_FRESH_ANSWERS = {
    "neg-li -2,-1": ("negindex", lambda out: json.loads(out)["stars"]["5"] == "12"),
    "h-closed-form -1": ("harmonic", lambda out: json.loads(out)["coeffs"] == ["0", "1/2", "1/2"]),
    "h-eval (-2,-1) 3": ("harmonic", lambda out: json.loads(out) == "31"),
    "li-coeffs 2 4": (
        "polylog_num",
        lambda out: json.loads(out) == {"mode": "exact", "coeffs": ["0", "1", "1/4", "1/9", "1/16"]},
    ),
    "li-coeffs 2 3 --float": (
        "polylog_num",
        lambda out: json.loads(out) == {"mode": "float", "coeffs": [0.0, 1.0, 0.25, 1 / 9]},
    ),
    "li-eval 1 0.5 1e-10": (
        "polylog_num",
        lambda out: abs(json.loads(out)["re"] - 0.6931471805599453) <= 1e-10,
    ),
    "verify --suite stirling": ("checks", lambda out: out.endswith("# 2/2 checks passed")),
}

# usage errors: each message names the program or the subcommand once
_COMMANDS = "'shuffle', 'stuffle', 'neg-li', 'h-closed-form', 'h-eval', 'li-coeffs', 'li-eval', 'verify'"
_USAGE_ERRORS = {
    "h-eval 1 x": "polylog h-eval: argument n: invalid int value: 'x'",
    "h-eval 1": "polylog h-eval: the following arguments are required: n",
    "h-eval 1 2 3": "polylog h-eval: unrecognized arguments: 3",
    "stuffle y1 y2 y3 y4": "polylog stuffle: unrecognized arguments: y3 y4",
    "bogus": f"polylog: argument command: invalid choice: 'bogus' (choose from {_COMMANDS})",
    "verify --suite bogus": "polylog verify: argument --suite: invalid choice: 'bogus' "
    f"(choose from {', '.join(map(repr, [*checks.SUITES, 'all']))})",
}


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
        code, out = self._run(capsys, "li-coeffs", "1", "3", "--csv")
        assert code == 0 and out.splitlines() == ["N,coefficient", "0,0", "1,1", "2,1/2", "3,1/3"]
        code, out = self._run(capsys, "li-coeffs", "1", "3")
        assert code == 0 and json.loads(out)["coeffs"] == ["0", "1", "1/2", "1/3"]

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

    def test_h_eval_negative_n_is_json_error(self, capsys):
        code, out = self._run(capsys, "h-eval", "1", "-5")
        assert code == 2
        assert json.loads(out)["error"] == {"code": "ValueError", "message": "N must be a natural number"}

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

    def test_li_coeffs_default_ncap(self, capsys):
        code, out = self._run(capsys, "li-coeffs", "1")
        assert code == 0 and len(json.loads(out)["coeffs"]) == 21

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

    @pytest.mark.parametrize("depth", [60, 20])
    def test_li_eval_work_cap_is_json_error(self, capsys, monkeypatch, depth):
        # m terms times the depth would pass MAX_TERMS near |z| = 0.995: refused before summing
        def unreachable(index, m):
            raise AssertionError(f"summed {m} terms at depth {len(index)}")

        monkeypatch.setattr(polylog_num, "_li_float_coeffs", unreachable)
        code, out = self._run(capsys, "li-eval", ",".join(["1"] * depth), "0.995", "1e-10")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "PrecisionError" and "times depth" in error["message"]

    def test_li_eval_within_work_cap_answers(self, capsys):
        # sum_{n > k >= 1} z^n / (n k)^3, with the inner sum kept as a running H_3(n - 1)
        z, inner, expected = 0.99, 0.0, 0.0
        for n in range(1, 6000):
            expected += z**n * inner / n**3
            inner += 1.0 / n**3
        code, out = self._run(capsys, "li-eval", "3,3", "0.99", "1e-10")
        payload = json.loads(out)
        assert code == 0 and payload["im"] == 0.0
        assert abs(payload["re"] - expected) < 1e-9

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

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (("stuffle", "star(1)", "y1"), "ExprTypeError", "at position 0: expected a Y-polynomial, got star combination"),
            (("shuffle", "1", "2"), "ExprTypeError", "at position 0: sh needs polynomial or star operands"),
            (
                ("h-closed-form", "y1"),
                "ExprTypeError",
                "at position 0: h-closed-form needs a star combination or a non-positive index, got Y-polynomial",
            ),
            (("li-eval", "1", "abc", "1e-6"), "ValueError", "cannot parse 'abc' as a complex number"),
        ],
        ids=["stuffle-of-star", "shuffle-of-rationals", "h-closed-form-of-word", "li-eval-point"],
    )
    def test_refused_request_is_json_error(self, capsys, argv, code, message):
        exit_code, out = self._run(capsys, *argv)
        assert exit_code == 2 and json.loads(out)["error"] == {"code": code, "message": message}

    def test_verify_stirling_suite(self, capsys):
        code, out = self._run(capsys, "verify", "--suite", "stirling")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_verify_json_output(self, capsys):
        code, out = self._run(capsys, "verify", "--suite", "stirling", "--json")
        report = json.loads(out)
        assert code == 0
        assert all(entry["status"] == "pass" for entry in report)

    def test_verify_unknown_suite_is_json_error(self, capsys):
        code, out = self._run(capsys, "verify", "--suite", "bogus")
        error = json.loads(out)["error"]
        assert code == 2 and error["code"] == "ArgumentError"
        assert all(repr(name) in error["message"] for name in ["bogus", *checks.SUITES, "all"])

    def test_import_leaves_checks_unloaded(self):
        # only verify imports the suites
        probe = "import sys, polylog.cli; sys.exit('polylog.checks' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", probe], env=_FRESH_ENV).returncode == 0

    def test_module_runs_as_a_script(self):
        # python -m polylog.cli answers and exits with the code of main
        argv = [sys.executable, "-m", "polylog.cli", "h-eval", "1", "-5"]
        run = subprocess.run(argv, env=_FRESH_ENV, capture_output=True, text=True)
        assert run.returncode == 2 and json.loads(run.stdout)["error"]["code"] == "ValueError"

    @staticmethod
    def _fresh(*argv):
        """Exit code, stdout and loaded package modules of ``polylog argv`` in a fresh interpreter."""
        probe = (
            "import json, sys; from polylog.cli import main; code = main(sys.argv[1:]); "
            "loaded = [m for m in sys.modules if m.startswith('polylog') or m == 'dataclasses']; "
            "print(json.dumps(loaded)); sys.exit(code)"
        )
        run = subprocess.run([sys.executable, "-c", probe, *argv], env=_FRESH_ENV, capture_output=True, text=True)
        *answer, loaded = run.stdout.splitlines()
        return run.returncode, "\n".join(answer), set(json.loads(loaded))

    def test_request_leaves_checks_unloaded(self):
        # a fresh process answers a product request with the modules products need, and no others
        code, out, loaded = self._fresh("stuffle", "y1", "y2")
        assert code == 0 and json.loads(out)["terms"] == {"3": "1", "1,2": "1", "2,1": "1"}
        unused = {"checks", "harmonic", "negindex", "polylog_num"}
        assert not loaded & {"dataclasses", *(f"polylog.{m}" for m in unused)}
        used = {"cli", "nc_core", "products", "coding", "stars"}
        assert loaded == {"polylog", *(f"polylog.{m}" for m in used)}

    @pytest.mark.parametrize("request_text", list(_FRESH_ANSWERS))
    def test_fresh_process_imports_what_it_uses(self, request_text):
        # each command imports its own modules on first use
        module, answered = _FRESH_ANSWERS[request_text]
        code, out, loaded = self._fresh(*request_text.split())
        assert code == 0 and answered(out)
        assert f"polylog.{module}" in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ("stuffle", "exps(y1 + y2, 6)", "y1"),
            ("shuffle", 'pix(y2 + 1/2 y1y1) - 3', '"01" + pix(piy("011"))'),
            ("stuffle", "conc(y1 - y2, 2 y3) + y1", "exps(-y1 - y2, 4)"),
        ],
    )
    def test_product_request_builds_no_word(self, argv):
        # products, stars and the printer run on letter tuples; only a polynomial's readers build
        # Words, and the reader at the end shows that the count sees them
        probe = (
            "import contextlib, io, sys; from polylog import cli, nc_core; made = []; "
            "nc_core.Word.__new__ = staticmethod(lambda cls, *a, **k: made.append(cls) or object.__new__(cls)); "
            "out = io.StringIO(); redirect = contextlib.redirect_stdout(out); redirect.__enter__(); "
            "code = cli.main(sys.argv[1:]); redirect.__exit__(None, None, None); request = len(made); "
            "cli.parse_value('y1 + y2').items(); print(code, request, len(made) - request)"
        )
        run = subprocess.run([sys.executable, "-c", probe, *argv], env=_FRESH_ENV, capture_output=True, text=True)
        assert run.stdout.split() == ["0", "0", "2"], run.stderr

    @pytest.mark.parametrize("request_text", list(_USAGE_ERRORS))
    def test_usage_error_names_its_command_once(self, capsys, request_text):
        code, out = self._run(capsys, *request_text.split())
        error = {"code": "ArgumentError", "message": _USAGE_ERRORS[request_text]}
        assert code == 2 and json.loads(out)["error"] == error

    @pytest.mark.parametrize("suite", ["mixed", "all"])
    @pytest.mark.parametrize("ncap", ["-1", "-40"])
    def test_verify_negative_ncap_is_json_error(self, capsys, suite, ncap):
        code, out = self._run(capsys, "verify", "--suite", suite, "--ncap", ncap)
        error = json.loads(out)["error"]
        assert code == 2 and error["code"] == "ArgumentError"
        assert error["message"] == f"polylog verify: argument --ncap: must be >= 0, got {ncap}"

    def test_verify_mixed_with_ncap(self, capsys):
        code, out = self._run(capsys, "verify", "--suite", "mixed", "--ncap", "10")
        assert code == 0

    def test_verify_fails_nonzero(self, capsys, monkeypatch):
        def broken(ncap, seed):
            return [checks.Check("always-fails", lambda: "forced")]

        monkeypatch.setitem(checks.SUITES, "stirling", broken)
        code, out = self._run(capsys, "verify", "--suite", "stirling")
        assert code == 1
        assert "FAIL [stirling] always-fails  (forced)" in out

    @pytest.mark.parametrize(
        "module, name, wrong, suite, detail",
        [
            (harmonic, "h_x1star_closed_form", lambda s: NPoly([1]), "mixed", "first failure at N=0"),
            (polylog_num, "li_eval", lambda *args: 0.5, "morphisms", "got 0.5"),
            (harmonic, "h_word_eval", lambda *args: 1, "morphisms", "got 1.0"),
        ],
        ids=["mixed", "li-eval", "h-word-eval"],
    )
    def test_failed_check_shows_what_it_got(self, monkeypatch, module, name, wrong, suite, detail):
        monkeypatch.setattr(module, name, wrong)
        suite = checks.SUITES[suite](5, checks.DEFAULT_SEED)
        results = [check.run() for check in suite if check.name.startswith(("mixed", "numeric"))]
        assert detail in [r.detail for r in results if not r.passed]

    def test_verify_json_reports_elapsed(self, capsys):
        code, out = self._run(capsys, "verify", "--suite", "stirling", "--json")
        report = json.loads(out)
        assert code == 0 and [e["check"] for e in report] == ["surjection lemma n<=20 m<=8", "stirling2 spot values"]
        assert all(set(e) == {"suite", "check", "status", "detail", "elapsed_s"} and e["elapsed_s"] >= 0 for e in report)

    def test_long_sum(self, capsys):
        # one accumulation: 1,100 terms do not reach the recursion limit
        long_sum = " + ".join(f"y{k}" for k in range(1, 1101))
        code, out = self._run(capsys, "stuffle", long_sum, "1")
        assert code == 0
        assert json.loads(out)["terms"] == {str(k): "1" for k in range(1, 1101)}

    def test_deep_nesting(self, capsys):
        # 400 nested calls: the parser and the evaluator keep pending calls on a list
        nested = "pix(" + "piy(pix(" * 200 + "y2" + "))" * 200 + ")"
        code, out = self._run(capsys, "shuffle", nested, '"1"')
        assert code == 0
        assert json.loads(out)["terms"] == {"011": "2", "101": "1"}

    def test_nesting_deeper_than_the_recursion_limit(self):
        # 5,001 calls, each argument a sum with a call in it, at the default recursion limit
        depth = 2500
        nested = "pix(" + "piy(pix(1 + " * depth + "y2" + "))" * depth + ")"
        assert depth > sys.getrecursionlimit()
        assert parse_value(nested) == NCPoly(X, {Word((), X): depth, x_word("01"): 1})

    @pytest.mark.parametrize(
        "argv,cap",
        [
            (("shuffle", f"star({MAX_STAR_ORDER + 1})", "1"), "MAX_STAR_ORDER"),
            (("shuffle", f"1 - 2*star({MAX_STAR_ORDER + 1})", "1"), "MAX_STAR_ORDER"),
            (("stuffle", f"exps(y1, {MAX_EXPS_CAP + 1})", "1"), "MAX_EXPS_CAP"),
        ],
        ids=["star", "star-in-sum", "exps"],
    )
    def test_caps_refuse_before_building(self, capsys, monkeypatch, argv, cap):
        def build(*args, **kwargs):
            raise AssertionError("an over-cap value was built")

        monkeypatch.setattr(X1StarPoly, "__init__", build)
        monkeypatch.setattr(products, "exp_stuffle", build)
        code, out = self._run(capsys, *argv)
        error = json.loads(out)["error"]
        assert code == 2 and error["code"] == "ValueError" and cap in error["message"]

    def test_star_at_cap_is_built(self):
        assert parse_value(f"star({MAX_STAR_ORDER})") == X1StarPoly({MAX_STAR_ORDER: 1})

    @pytest.mark.parametrize(
        "order", [MAX_STAR_ORDER // 2 + 1, MAX_STAR_ORDER], ids=["sh-stars", "sh-stars-of-cap"]
    )
    def test_star_shuffle_refused_before_building(self, capsys, monkeypatch, order):
        # each operand is within the cap; their shuffle, of order 2 * order, is not
        def build(*args, **kwargs):
            raise AssertionError("an over-cap star shuffle was built")

        monkeypatch.setattr(X1StarPoly, "shuffle", build)
        code, out = self._run(capsys, "h-closed-form", f"sh(star({order}), star({order}))")
        error = json.loads(out)["error"]
        assert code == 2 and error["code"] == "ValueError" and "MAX_STAR_ORDER" in error["message"]
        assert f"star order {2 * order} " in error["message"]

    def test_star_shuffle_at_cap_is_built(self):
        half = MAX_STAR_ORDER // 2
        assert parse_value(f"sh(star({half}), star({half}))") == X1StarPoly({MAX_STAR_ORDER: 1})

    @pytest.mark.parametrize("signs", [1500, 1501])
    def test_long_run_of_signs(self, capsys, signs):
        # a run of unary minus signs is one node: no recursion per sign
        code, out = self._run(capsys, "stuffle", "- " * signs + "y1", "1")
        assert code == 0
        assert json.loads(out)["terms"] == {"1": "1" if signs % 2 == 0 else "-1"}

    @_needs_digit_limit
    def test_big_integer_printed_exactly(self, capsys):
        before = sys.get_int_max_str_digits()
        code, out = self._run(capsys, "h-eval", "(-2000)", "200")
        expected = sum(n**2000 for n in range(1, 201))
        assert code == 0 and len(json.loads(out)) > 4300
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(out) == str(expected)
        finally:
            sys.set_int_max_str_digits(before)

    def test_request_answers_without_a_digit_limit(self, capsys, monkeypatch):
        # CPython builds before 3.10.7 have no limit to raise: a request answers all the same
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        code, out = self._run(capsys, "h-eval", "(-2,-1)", "3")
        assert code == 0 and json.loads(out) == "31"

    @_needs_digit_limit
    def test_digit_cap_is_json_error(self, capsys):
        before = sys.get_int_max_str_digits()
        # 1 + 2^340000 has 102,351 digits
        code, out = self._run(capsys, "h-eval", "(-340000)", "2")
        error = json.loads(out)["error"]
        assert code == 2 and error["code"] == "ValueError" and str(MAX_DIGITS) in error["message"]
        # the message names the CLI's cap, not CPython's advice to raise its limit
        assert "MAX_DIGITS" in error["message"] and "set_int_max_str_digits" not in error["message"]
        assert sys.get_int_max_str_digits() == before
        code, out = self._run(capsys, "h-eval", "(1)", "bad")
        assert code == 2 and sys.get_int_max_str_digits() == before

    @_needs_digit_limit
    def test_digit_limit_shared_by_overlapping_requests(self, capsys, monkeypatch):
        # request A starts, B starts, A ends while B still runs: B keeps the raised
        # limit, and the caller's limit is back once both have ended
        before = sys.get_int_max_str_digits()
        entered = {name: threading.Event() for name in "AB"}
        release = {name: threading.Event() for name in "AB"}
        h_signed_eval = harmonic.h_signed_eval

        def held(index, n):
            name = threading.current_thread().name
            entered[name].set()
            release[name].wait(10)
            return h_signed_eval(index, n)

        monkeypatch.setattr(harmonic, "h_signed_eval", held)
        codes = {}

        def request():
            codes[threading.current_thread().name] = main(["h-eval", "(-2000)", "200"])

        threads = {name: threading.Thread(target=request, name=name) for name in "AB"}
        threads["A"].start()
        assert entered["A"].wait(10)
        threads["B"].start()
        assert entered["B"].wait(10)
        release["A"].set()
        threads["A"].join(10)
        assert sys.get_int_max_str_digits() == MAX_DIGITS
        release["B"].set()
        threads["B"].join(10)
        assert codes == {"A": 0, "B": 0}
        assert sys.get_int_max_str_digits() == before
        sys.set_int_max_str_digits(0)
        try:
            expected = str(sum(n**2000 for n in range(1, 201)))
        finally:
            sys.set_int_max_str_digits(before)
        assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == [expected] * 2

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
        # building a suite draws its inputs and runs nothing
        def drawn(seed):
            return [(c.name, c.inputs) for name in ("morphisms", "stars") for c in checks.SUITES[name](None, seed)]

        first, other = drawn(7), drawn(8)
        assert first == drawn(7)
        assert [name for name, _ in first] == [name for name, _ in other]
        # the six seeded checks draw other inputs for another seed
        assert sum(a != b for a, b in zip(first, other)) == 6
