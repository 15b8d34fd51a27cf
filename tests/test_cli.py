from stagelet.base import DEFAULT_STEP_LIMIT
from stagelet.cli import _build_parser, main
from stagelet.codec import DEFAULT_CANON_LIMIT
from stagelet.examples import registry

from helpers import parse_sexp, serialize_sexp


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestShow:
    def test_pretty_default(self, capsys):
        code, out, err = invoke(capsys, "show", "ct1")
        assert (code, out, err) == (0, "(1 + 2)\n", "")

    def test_sexp_format(self, capsys):
        code, out, err = invoke(capsys, "show", "ct1", "--format", "sexp")
        assert (code, out, err) == (0, "(add (int 1) (int 2))\n", "")

    def test_sexp_round_trips(self, capsys):
        for entry in registry():
            code, out, err = invoke(capsys, "show", entry.name, "--format", "sexp")
            assert code == 0 and err == ""
            assert out.endswith("\n") and not out[:-1].endswith("\n")
            text = out[:-1]
            assert serialize_sexp(parse_sexp(text)) == text

    def test_base_program_shows_directly(self, capsys):
        code, out, _ = invoke(capsys, "show", "t1")
        assert (code, out) == (0, "(1 + 2)\n")


class TestRun:
    def test_integers(self, capsys):
        assert invoke(capsys, "run", "cgib5", "1", "1") == (0, "8\n", "")
        assert invoke(capsys, "run", "t1") == (0, "3\n", "")
        assert invoke(capsys, "run", "ack2", "4") == (0, "11\n", "")

    def test_least_step_budget_of_a_base_program(self, capsys):
        # a base program runs on eval_ast, whose least budget for ack2 on 3
        # is 89; the CLI-as-a-process CI step pins the same figure
        assert invoke(capsys, "--step-limit", "89", "run", "ack2", "3") == (0, "9\n", "")
        assert invoke(capsys, "--step-limit", "88", "run", "ack2", "3") == (
            4,
            "",
            "error: step limit exceeded\n",
        )

    def test_function_result(self, capsys):
        assert invoke(capsys, "run", "cgib5") == (0, "<fun>\n", "")

    def test_negative_argument(self, capsys):
        code, out, _ = invoke(capsys, "run", "csq", "-3")
        assert (code, out) == (0, "9\n")

    def test_deep_recursion(self, capsys):
        # ack(2, 150) = 303 recurses about 300 Ackermann call levels deep:
        # within the host stack only because run evaluates a function whose
        # body is an `if` in the function's own call
        assert invoke(capsys, "run", "cack2", "150") == (0, "303\n", "")


class TestCheck:
    def test_letrec_code_is_closed(self, capsys):
        assert invoke(capsys, "check", "cack2") == (0, "closed\n", "")

    def test_extruded_reports_free_names(self, capsys):
        code, out, err = invoke(capsys, "check", "clgib5-extruded")
        assert code == 2
        assert out.startswith("free: ")
        assert len(out.split()) >= 2
        assert err == ""

    def test_everything_else_is_closed(self, capsys):
        for entry in registry():
            if entry.name == "clgib5-extruded":
                continue
            code, out, err = invoke(capsys, "check", entry.name)
            assert (code, out, err) == (0, "closed\n", ""), entry.name


class TestList:
    def test_sorted_names_with_kinds(self, capsys):
        code, out, err = invoke(capsys, "list")
        assert code == 0 and err == ""
        lines = out.splitlines()
        names = [line.split()[0] for line in lines]
        assert names == sorted(e.name for e in registry())
        kinds = {line.split()[0]: line.split()[1] for line in lines}
        assert kinds["t1"] == "base-program"
        assert kinds["cack2"] == "generator"
        assert kinds["clgib5-extruded"] == "generator-expect-extrusion"


class TestErrors:
    def test_unknown_name(self, capsys):
        code, out, err = invoke(capsys, "show", "nosuch")
        assert code == 3
        assert out == ""
        assert "nosuch" in err

    def test_parse_failure(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_missing_command(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 1

    def test_canon_limit_maps_to_exit_4(self, capsys):
        code, out, err = invoke(capsys, "--canon-limit", "1", "show", "cack2")
        assert code == 4
        assert out == ""
        assert "pending" in err and "[" in err  # locus/key details

    def test_step_limit_maps_to_exit_4(self, capsys):
        code, _, err = invoke(capsys, "run", "ack2", "8", "--step-limit", "5")
        assert code == 4
        assert "step limit" in err


class TestFlags:
    def test_flags_accepted_anywhere_last_wins(self, capsys):
        code, out, _ = invoke(
            capsys, "--canon-limit", "1", "show", "cack2", "--canon-limit", "10000"
        )
        assert code == 0
        assert out.startswith("(let rec ")

    def test_flag_only_before_subcommand(self, capsys):
        code, _, _ = invoke(capsys, "--canon-limit", "10000", "show", "cack2")
        assert code == 0

    def test_repeated_flag_last_wins(self, capsys):
        code, _, _ = invoke(
            capsys, "--canon-limit", "1", "--canon-limit", "10000", "show", "cack2"
        )
        assert code == 0

    def test_unset_flags_carry_the_library_defaults(self):
        opts = _build_parser().parse_args(["list"])
        assert (opts.canon_limit, opts.step_limit) == (
            DEFAULT_CANON_LIMIT,
            DEFAULT_STEP_LIMIT,
        )


class TestOutputDiscipline:
    def test_single_trailing_newline_and_quiet_stderr(self, capsys):
        for argv in (
            ["list"],
            ["show", "cack2"],
            ["run", "cgib5", "2", "2"],
            ["check", "csq"],
        ):
            code, out, err = invoke(capsys, *argv)
            assert code == 0
            assert err == ""
            assert out.endswith("\n") and not out.endswith("\n\n")
