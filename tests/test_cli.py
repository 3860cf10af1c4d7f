import hashlib
import json

import pytest

import msi.integral as integral_mod
from msi.cli import main
from msi.verify import SUITES

FAREY5_CSV = """num,den,value
1,5,0.2
1,4,0.25
1,3,0.3333333333333333
2,5,0.4
1,2,0.5
"""

FAREY300_CSV_SHA256 = "9831424d2c48eb331740b66841607e4240dd1de66acca82ccfe48456752cd825"

MOBIUS10_CSV = """n,value
1,1
2,-1
3,-1
4,0
5,-1
6,1
7,-1
8,0
9,0
10,1
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sieve_golden(capsys):
    code, out, _ = run(capsys, "sieve", "--kind", "mobius", "--max-n", "10")
    assert code == 0
    assert out == MOBIUS10_CSV


def test_sieve_divisor_kind(capsys):
    code, out, _ = run(capsys, "sieve", "--kind", "divisor", "--max-n", "6")
    assert code == 0
    assert out.splitlines()[-1] == "6,4"


def test_sieve_to_file(tmp_path, capsys):
    path = tmp_path / "mu.csv"
    code, out, _ = run(capsys, "sieve", "--kind", "mobius", "--max-n", "10", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text() == MOBIUS10_CSV


def test_farey_golden(capsys):
    code, out, _ = run(capsys, "farey", "--q", "5", "--csv")
    assert code == 0
    assert out == FAREY5_CSV


def test_farey_q300_csv_digest(capsys):
    # the whole order-300 output, pinned by digest: 13,700 lines are too many to inline
    code, out, _ = run(capsys, "farey", "--q", "300", "--csv")
    assert code == 0
    assert len(out.splitlines()) == 13700
    assert hashlib.sha256(out.encode()).hexdigest() == FAREY300_CSV_SHA256


def test_integral_json_schema(capsys):
    code, out, _ = run(
        capsys, "integral", "--n", "30", "--h", "2", "--q", "5", "--g", "mobius", "--decompose"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "config", "diagonal", "near_delta", "near_sigma",
        "far_delta", "far_sigma", "total", "direct", "abs_gap", "pairs",
    }
    assert payload["abs_gap"] <= 1e-8 * (1 + payload["direct"])
    assert payload["pairs"]["fractions"] == 5
    assert payload["pairs"]["far_difference"] + payload["pairs"]["near_difference"] == 10


def test_integral_csv_row(capsys):
    code, out, _ = run(
        capsys, "integral", "--n", "30", "--h", "2", "--q", "5", "--g", "mobius",
        "--decompose", "--csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,h,Q,g,j_direct,j_total,diagonal,near,far,gap"
    assert lines[1].startswith("30,2,5,mobius,")


def test_integral_plain_direct(capsys):
    code, out, _ = run(capsys, "integral", "--n", "24", "--h", "2", "--q", "4", "--g", "delta1")
    assert code == 0
    assert json.loads(out)["direct"] == 0.0


def test_integral_power_cutoff(capsys):
    code, out, _ = run(
        capsys, "integral", "--n", "100", "--h", "2", "--g", "mobius", "--cutoff", "power:0.5"
    )
    assert code == 0
    assert json.loads(out)["config"]["cutoff"] == "power:0.5"


def test_usage_error_odd_h(capsys):
    code, _, err = run(capsys, "integral", "--n", "30", "--h", "3", "--q", "5", "--g", "mobius")
    assert code == 2
    assert "even" in err


def test_usage_error_missing_q(capsys):
    code, _, err = run(capsys, "integral", "--n", "30", "--h", "2", "--g", "mobius")
    assert code == 2
    assert "--q" in err


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_resource_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(integral_mod, "PAIR_BUDGET", 2)
    code, _, err = run(
        capsys, "integral", "--n", "30", "--h", "2", "--q", "8", "--g", "unit", "--decompose"
    )
    assert code == 3
    assert "budget" in err
    code, _, _ = run(
        capsys, "integral", "--n", "30", "--h", "2", "--q", "8", "--g", "unit",
        "--decompose", "--force",
    )
    assert code == 0


def test_int64_guard_exit_code(capsys):
    code, _, err = run(
        capsys, "integral", "--n", str(10 ** 18), "--h", "2", "--q", "2", "--g", "unit",
        "--decompose", "--force",
    )
    assert code == 3
    assert "int64" in err


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_fast_suite(capsys, tmp_path, suite):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", suite, "--fast", "--out", str(report_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == suite
    assert payload["pass"] is True
    for prop in payload["properties"]:
        assert set(prop) == {"property", "instances", "max_error", "pass"}
    assert json.loads(report_path.read_text()) == payload


def test_sweep_deterministic_rerun(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--n-values", "1024,2048", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "N,h,Q,g,G,j_f,j_F,nh,ratio"
    assert len(lines) == 3
    assert lines[1].startswith("1024,16,8,mobius,mobius-squared,")


def test_sweep_single_row(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["sweep", "--n-values", "512", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_sweep_defaults_reproduce_growth_rows(tmp_path):
    from msi.verify import majorant_growth_experiment

    out = tmp_path / "growth.csv"
    assert main(["sweep", "--n-values", "1024,2048", "--out", str(out)]) == 0
    rows, _, _ = majorant_growth_experiment(range(10, 12))
    got = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for (rep, _), cells in zip(rows, got):
        assert float(cells[5]) == rep.j_f
        assert float(cells[8]) == rep.ratio


def test_sweep_custom_rules(tmp_path):
    out = tmp_path / "c.csv"
    code = main([
        "sweep", "--n-values", "256,512", "--h-rule", "const:4", "--q-rule", "const:6",
        "--g", "random:7", "--G", "unit", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("256,4,6,random:7,unit,")


def test_sweep_bad_rule_is_usage_error(tmp_path):
    code = main(["sweep", "--n-values", "256", "--h-rule", "const:3", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_sweep_bad_cutoff_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--n-values", "256", "--cutoff", "bogus", "--out", str(out)]) == 2
    assert "bad cutoff 'bogus'" in capsys.readouterr().err
    assert not out.exists()
