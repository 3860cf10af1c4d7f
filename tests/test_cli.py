import hashlib
import json
import sys

import pytest

import msi
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
FAREY300_PLAIN_SHA256 = "f7ae17d36af34d8fbcaa03f2cc59e5a003da94be1d92a3d10f4971687d1c517a"

# `msi verify --suite S --fast`: (property, instances, max_error) in report order
FAST_SUITE_GOLDEN = {
    "farey": [
        ("F1", 104359, 0.0),
        ("F2", 54323, 0.0),
        ("min-gap", 101, 0.0),
        ("F3", 10902, 0.0),
        ("F4", 1982294, 0.0),
    ],
    "lemma": [
        ("lemma-far-bound", 4460, 0.49030173718881587),
        ("lemma-exp-sum-bound", 1000, 0.9978951907009955),
        ("J5", 69, 0.0),
    ],
}

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


# `msi sweep --n-values 1024,2048`: the default rules and presets, as criterion 7 runs them
DEFAULT_SWEEP_ROWS = [
    "1024,16,8,mobius,mobius-squared,5.022471655328799,6.728622448979592,16384.0,0.0003064215002894959",
    "2048,20,9,mobius,mobius-squared,3.471235827664399,5.75091836734694,40960.0,8.473507136684856e-05",
]

# `msi sweep --n-values 256,512 --cutoff power:0.5`: Q is floor(sqrt(2N + h))
POWER_SWEEP_ROWS = [
    "256,8,22,mobius,mobius-squared,121.1834190949439,100.38427652176378,2048.0,0.05640677062259084",
    "512,12,32,mobius,mobius-squared,245.9559658020567,311.5362081792797,6144.0,0.038100005618499376",
]


@pytest.fixture
def no_tables(monkeypatch):
    """Every msi binding of preset_table fails: nothing may tabulate g."""
    def untouchable(*args, **kwargs):
        raise AssertionError("a table was built before the config check")

    for name, mod in list(sys.modules.items()):
        if name.startswith("msi") and getattr(mod, "preset_table", None) is not None:
            monkeypatch.setattr(mod, "preset_table", untouchable)


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


def test_farey_q300_plain_digest(capsys):
    code, out, _ = run(capsys, "farey", "--q", "300")
    assert code == 0
    assert len(out.splitlines()) == 13699
    assert hashlib.sha256(out.encode()).hexdigest() == FAREY300_PLAIN_SHA256


@pytest.mark.parametrize("kind", ["delta1", "unit", "mobius", "mobius-squared", "random:3", "divisor"])
def test_sieve_refuses_empty_table(capsys, kind):
    code, out, err = run(capsys, "sieve", "--kind", kind, "--max-n", "0")
    assert code == 2
    assert out == ""
    assert "error" in err


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


@pytest.mark.parametrize("a", ["0", "inf", "-1", "nan"])
def test_usage_error_bad_spacing_parameter(capsys, a):
    code, out, err = run(
        capsys, "integral", "--n", "30", "--h", "2", "--q", "5", "--g", "mobius",
        "--decompose", "--a", a,
    )
    assert code == 2
    assert out == ""
    assert "spacing parameter" in err


def test_integral_has_no_json_flag():
    # JSON is the default output and has no flag of its own
    with pytest.raises(SystemExit) as exc:
        main(["integral", "--n", "30", "--h", "2", "--q", "5", "--g", "mobius", "--json"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", "--kind", "mobius", "--max-n", "5"],
        ["farey", "--q", "5"],
        ["sweep", "--n-values", "256"],
        ["verify", "--suite", "spectral", "--fast"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert err.startswith("error: ") and "No such file or directory" in err


def test_tiny_spacing_parameter_makes_every_pair_near(capsys):
    # 1/A = 1e320 is beyond the float range
    code, out, _ = run(
        capsys, "integral", "--n", "100", "--h", "2", "--q", "5", "--g", "mobius",
        "--decompose", "--a", "1e-320",
    )
    assert code == 0
    pairs = json.loads(out)["pairs"]
    assert pairs["far_difference"] == pairs["far_wrapped_sum"] == 0 < pairs["near_difference"]


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
    if suite in FAST_SUITE_GOLDEN:
        got = [(p["property"], p["instances"], p["max_error"]) for p in payload["properties"]]
        assert got == FAST_SUITE_GOLDEN[suite]


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
    assert out.read_text().splitlines()[1:] == DEFAULT_SWEEP_ROWS
    rows, _, _ = majorant_growth_experiment(range(10, 12))
    for (key, rep, _), cells in zip(rows, (r.split(",") for r in DEFAULT_SWEEP_ROWS), strict=True):
        assert key == tuple(map(int, cells[:3]))
        assert (rep.j_f, rep.j_F, rep.n_h, rep.ratio) == tuple(map(float, cells[5:]))


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


def test_integral_fixed_q_above_n_plus_h_builds_no_table(capsys, no_tables):
    code, out, err = run(capsys, "integral", "--n", "256", "--h", "2", "--q", "1000000000", "--g", "unit")
    assert code == 2
    assert out == ""
    assert "exceeds n + h = 258" in err


def test_sweep_fixed_q_above_n_plus_h_builds_no_table(tmp_path, capsys, no_tables):
    out = tmp_path / "x.csv"
    code = main(["sweep", "--n-values", "256", "--q-rule", "const:1000000000", "--out", str(out)])
    assert code == 2
    assert "exceeds n + h" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_power_cutoff_q_column(capsys):
    code, out, _ = run(capsys, "sweep", "--n-values", "256,512", "--cutoff", "power:0.5")
    assert code == 0
    assert out.splitlines()[1:] == POWER_SWEEP_ROWS


@pytest.mark.parametrize("q_rule", ["const:1000000000", "bogus"])
def test_sweep_power_cutoff_reads_no_q_rule(capsys, q_rule):
    code, out, _ = run(
        capsys, "sweep", "--n-values", "256,512", "--cutoff", "power:0.5", "--q-rule", q_rule
    )
    assert code == 0
    assert out.splitlines()[1:] == POWER_SWEEP_ROWS


def test_integral_fixed_cutoff_takes_q_from_q_only(capsys):
    code, out, err = run(capsys, "integral", "--n", "256", "--h", "2", "--g", "unit", "--cutoff", "fixed:7")
    assert code == 2
    assert out == ""
    assert "bad cutoff 'fixed:7'" in err


def test_integral_power_cutoff_refuses_q(capsys):
    code, out, err = run(
        capsys, "integral", "--n", "256", "--h", "2", "--q", "5", "--g", "unit", "--cutoff", "power:0.5"
    )
    assert code == 2
    assert out == ""
    assert "--q" in err


def test_report_types_live_in_their_modules():
    # trimmed from the package namespace; each stays importable where it is defined
    from msi.farey import PairPartition
    from msi.integral import DecompositionReport, FarPartReport, MajorantReport

    for cls in (PairPartition, DecompositionReport, FarPartReport, MajorantReport):
        assert cls.__name__ not in msi.__all__
        assert not hasattr(msi, cls.__name__)
