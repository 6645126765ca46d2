"""Exit codes, output documents, and the printable polynomial catalog."""

import json
import os
import subprocess
import sys
import time

import pytest

import modinvar
from modinvar import cli, gens, verify
from modinvar.gens import InvariantContext
from modinvar.gf import ff_from_q
from modinvar.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_relations_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "relations", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    assert doc["suite"] == "relations"


def test_unsupported_q_exits_two(capsys):
    code, _, err = run_cli(capsys, "relations", "--q", "6")
    assert code == 2
    assert "NotPrime" in err


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "relations", "--q", "2",
                           "--format", "text")
    assert code == 0
    assert out.strip().endswith("overall: pass")
    assert "[pass] T0" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "hilbert", "--q", "2",
                           "--max-degree", "8", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["suite"] == "hilbert"
    assert doc["params"]["max_degree"] == 8


def test_kernel_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--q", "2",
                           "--max-degree", "10")
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


def test_kernel_default_bound_covers_every_relation_at_q4(capsys):
    # T1 and T1s have degree 20, T01 and T10 27, T00 30
    code, out, _ = run_cli(capsys, "kernel", "--q", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["max_degree"] == 30
    status = {it["name"]: it["status"] for it in doc["items"]}
    assert all(status["d=%d" % d] == "pass" for d in (20, 27, 30))
    assert doc["overall"] == "pass"


def test_products_sampled(capsys):
    code, out, _ = run_cli(capsys, "products", "--q", "3",
                           "--sample", "3", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["seed"] == 7
    assert doc["params"]["sample"] == "3"


def test_products_bad_sample(capsys):
    code, _, err = run_cli(capsys, "products", "--q", "2", "--sample", "xx")
    assert code == 2


def test_show_u0(capsys):
    code, out, _ = run_cli(capsys, "show", "u0", "--q", "5")
    assert code == 0
    assert out.strip() == "x1*y1 + x2*y2"


def test_show_h_matches_c1s(capsys):
    _, h_out, _ = run_cli(capsys, "show", "h", "--s", "0", "--q", "3")
    _, c_out, _ = run_cli(capsys, "show", "c1s", "--q", "3")
    assert h_out == c_out


def test_show_c1(capsys):
    code, out, _ = run_cli(capsys, "show", "c1", "--q", "2")
    assert code == 0
    assert out.strip() == "x1^2 + x1*x2 + x2^2"


def test_show_identity_difference_is_zero(capsys):
    code, out, _ = run_cli(capsys, "show", "Ks", "--s", "1", "--q", "3")
    assert code == 0
    assert out.strip() == "0"


def test_show_unknown_name(capsys):
    code, _, err = run_cli(capsys, "show", "nope", "--q", "2")
    assert code == 2
    assert "unknown name" in err


def test_show_s7_relation(capsys):
    code, out, _ = run_cli(capsys, "show", "W", "--q", "2")
    assert code == 0
    assert out.strip() == "U0^3 + Um1*U1"


def test_show_defaults_to_the_first_index(capsys):
    code, out, _ = run_cli(capsys, "show", "Rs", "--q", "3")
    assert code == 0
    assert out.strip() == "0"


def test_show_index_of_a_name_without_one_exits_two(capsys):
    code, out, err = run_cli(capsys, "show", "u0", "--s", "1")
    assert code == 2
    assert out == ""
    assert "takes no index" in err


def test_reduce_document(capsys):
    code, out, _ = run_cli(capsys, "reduce", "A:1,1,0", "A:1,1,0",
                           "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["reverified"] == "pass"
    assert doc["q"] == 2
    assert doc["field"] == {"p": 2, "s": 1, "modulus": None}
    assert set(doc["cofactors"]) == {"T1", "T1s", "T00", "T01", "T10"}
    assert doc["ell"]["A:1,1,0"] == "C0*C0s"


def test_reduce_trivial(capsys):
    code, out, _ = run_cli(capsys, "reduce", "A:0,0,0", "A:0,0,0",
                           "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ell"] == {"A:0,0,0": "1"}


def test_reduce_refused_construction_exits_one(capsys, monkeypatch):
    """T10 replaced by 0 leaves a C-last leading term with a C in it: the
    construction refuses, which is a verdict (exit 1), not bad input."""
    field = ff_from_q(2)
    ctx = InvariantContext(field)
    ctx._memo["rel", "T10"] = ctx.S7.zero
    monkeypatch.setattr(gens, "_CONTEXTS",
                        {(field.p, field.s, field.modulus): ctx})
    code, out, _ = run_cli(capsys, "reduce", "A:0,0,0", "A:0,0,0",
                           "--q", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["reverified"] == "fail"
    assert doc["detail"].startswith("the relations in the C-last order")


def test_reduce_bad_spec(capsys):
    code, _, err = run_cli(capsys, "reduce", "A:9,9,9", "A:0,0,0",
                           "--q", "2")
    assert code == 2


def test_invariance_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "invariance", "--q", "2")
    assert code == 0


def test_timeout_exit_three(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--q", "3",
                           "--max-degree", "16", "--timeout-secs", "0")
    assert code == 3
    doc = json.loads(out)
    assert doc["overall"] == "fail"
    assert any(it["status"] == "timeout" for it in doc["items"])


@pytest.mark.parametrize("value, message",
                         (("-5", "must be 0 or more seconds, got -5"),
                          ("abc", "must be whole seconds, got 'abc'")))
@pytest.mark.parametrize("argv", (["kernel", "--q", "3"],
                                  ["reduce", "A:0,0,0", "A:0,0,0"]),
                         ids=lambda a: a[0])
def test_bad_timeout_is_a_usage_error(monkeypatch, capsys, argv,
                                           value, message):
    def spy(*args, **kwargs):
        raise AssertionError("ran with a bad budget")

    monkeypatch.setattr(verify, "check_kernel", spy)
    monkeypatch.setattr(verify, "reduce_product", spy)
    monkeypatch.setattr(cli, "_field_from_args", spy)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--timeout-secs", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--timeout-secs" in err and message in err
    assert "_budget" not in err


def test_console_script_installed():
    # the child imports the same modinvar as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(modinvar.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "modinvar.cli",
                          "show", "d2", "--q", "2"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout.strip() == "x1^2*x2 + x1*x2^2"


def test_extension_field_with_modulus(capsys):
    code, out, _ = run_cli(capsys, "relations", "--q", "4",
                           "--modulus", "t^2+t+1")
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


@pytest.mark.parametrize("modulus", (
    "1,1,1", "x+1", "t^x",
    pytest.param("t^%s+1" % ("9" * 5000), id="5000-digit-exponent")))
def test_malformed_modulus_exits_two(capsys, modulus):
    code, _, err = run_cli(capsys, "relations", "--q", "4",
                           "--modulus", modulus)
    assert code == 2
    assert "FieldError" in err


@pytest.mark.parametrize("modulus", ("t^3000000000+1", "t^9+t+1"))
def test_modulus_exponent_does_not_size_memory(capsys, modulus):
    # the degree is checked before any coefficient tuple is built: t^3e9
    # would otherwise ask for about 24 GB
    t0 = time.monotonic()
    code, _, err = run_cli(capsys, "relations", "--q", "4",
                           "--modulus", modulus)
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert "UnsupportedSize" in err


# a value for each of the nine flags, and the flags each subcommand reads
FLAG_VALUES = {"--q": "2", "--modulus": "t^2+t+1", "--out": "r.json",
               "--timeout-secs": "5", "--format": "text",
               "--max-degree": "4", "--sample": "3", "--seed": "1",
               "--s": "0"}
SUITE_FLAGS = {"--q", "--modulus", "--out", "--timeout-secs", "--format"}
READS = {
    "relations": SUITE_FLAGS,
    "invariance": SUITE_FLAGS,
    "reduce": SUITE_FLAGS,
    "hilbert": SUITE_FLAGS | {"--max-degree"},
    "kernel": SUITE_FLAGS | {"--max-degree"},
    "products": SUITE_FLAGS | {"--sample", "--seed"},
    "show": {"--q", "--modulus", "--out", "--s"},
}
POSITIONALS = {"show": ["u0"], "reduce": ["A:0,0,0", "A:0,0,0"]}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("command", sorted(READS))
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command,
                                                        flag):
    argv = [command] + POSITIONALS.get(command, []) \
        + [flag, FLAG_VALUES[flag]]
    if flag in READS[command]:
        args = build_parser().parse_args(argv)
        assert args.command == command
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        # "unrecognized arguments", or for products "ambiguous option: --s"
        assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("where", ("directory", "missing-parent"))
@pytest.mark.parametrize("argv", (
    ["relations", "--q", "2"],
    ["show", "u0", "--q", "2"],
    ["reduce", "A:0,0,0", "A:0,0,0", "--q", "2"]), ids=lambda a: a[0])
def test_unwritable_out_exits_two_before_any_work(monkeypatch, capsys,
                                                  tmp_path, argv, where):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("ran before --out was checked")

    monkeypatch.setattr(verify, "check_relations", spy)
    monkeypatch.setattr(verify, "reduce_product", spy)
    monkeypatch.setattr(cli, "context", spy)
    out = tmp_path if where == "directory" else tmp_path / "no" / "r.json"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("OSError: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert calls == []


@pytest.mark.parametrize("suite", ("hilbert", "kernel"))
def test_degree_bound_beyond_a_packed_key_exits_two(capsys, suite):
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, suite, "--q", "2",
                             "--max-degree", "32768")
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "VerifyError" in err
    code, out, _ = run_cli(capsys, suite, "--q", "2", "--max-degree", "32767",
                           "--timeout-secs", "0")
    assert code == 3
