import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rellich
from rellich import verify
from rellich.cli import CONFIG_ENV, main
from rellich.errors import DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_amn_worked_example(capsys):
    code, out, _ = run_cli(capsys, "constants", "--family", "amn", "--N", "30", "--m", "8")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("amn,")][0]
    fields = line.split(",")
    assert abs(float(fields[5]) - 360.29411764705884) < 1e-9
    assert "argmin_k=2" in line


def test_constants_simple_families(capsys):
    code, out, _ = run_cli(capsys, "constants", "--family", "rellich", "--N", "6")
    assert code == 0 and out.splitlines()[1].split(",")[5] == "9"
    code, out, _ = run_cli(capsys, "constants", "--family", "amn", "--N", "30", "--m", "4")
    assert "m <= m*" in out
    assert ",361," in out


def test_constants_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "constants", "--family", "rellich", "--N", "4")
    assert code == 2
    assert "error:" in err


def test_constants_json_format(capsys):
    code, out, _ = run_cli(capsys, "constants", "--family", "thresholds", "--N", "30", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    by_family = {(r["family"], r.get("k")): r["value"] for r in rows}
    assert abs(by_family[("m-star", "")] - 4.17090304) < 1e-6


def test_amn_table_transitions(capsys):
    code, out, err = run_cli(
        capsys, "amn-table", "--N", "30", "--grid", "4,4.5,7,8,9.66,11.81,12.9,99"
    )
    assert code == 0
    assert "clipped" in err
    argmins = [int(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert argmins == [0, 1, 2, 2, 2, 1, 1]


def test_amn_table_small_dimension_modes(capsys):
    code, out, _ = run_cli(capsys, "amn-table", "--N", "8", "--grid", "0.5,1.0,1.5,1.9")
    assert code == 0
    argmins = {int(line.split(",")[2]) for line in out.splitlines()[1:]}
    assert argmins <= {0, 1}


def test_amn_table_rejects_a_malformed_grid_token(capsys):
    code, out, err = run_cli(capsys, "amn-table", "--N", "6", "--grid", "0.1,abc")
    assert (code, out) == (2, "")
    assert "'abc'" in err


@pytest.mark.parametrize("N", ["4", "3"])
def test_amn_table_rejects_a_dimension_below_five(capsys, N):
    code, out, err = run_cli(capsys, "amn-table", "--N", N, "--grid", "0.1,0.2")
    assert (code, out) == (2, "")
    assert "dimension must be an integer >= 5" in err and "clipped" not in err


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize(
    "argv",
    [("constants", "--family", "rellich", "--N", "6"), ("verify", "--seed", "7", "--suite-size", "1")],
)
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, where, argv):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "out.csv"
    code, _, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert err.startswith("error: cannot write --out") and str(target) in err


def test_verify_checks_out_before_the_run(capsys, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the registry ran before --out was checked")

    monkeypatch.setattr(verify, "check_identity", never)
    code, out, err = run_cli(capsys, "verify", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write --out") and str(tmp_path) in err

    def fails(*args, **kwargs):
        raise DomainError("no run")

    # a writable --out is checked without being opened: a failed run leaves it as it was
    existing = tmp_path / "out.csv"
    existing.write_text("kept\n")
    monkeypatch.setattr(verify, "check_identity", fails)
    assert run_cli(capsys, "verify", "--out", str(existing))[0] == 2
    assert existing.read_text() == "kept\n"


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    argv = ["constants", "--family", "rellich", "--N", "6"]
    env = {**os.environ, "PYTHONPATH": str(Path(rellich.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "rellich", *argv], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == run_cli(capsys, *argv)[:2]


def test_verify_small_suite_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--set", "identities", "--seed", "7", "--suite-size", "8"
    )
    assert code == 0
    assert "FAIL" not in out


def test_verify_rejects_small_dimension(capsys):
    code, _, err = run_cli(capsys, "verify", "--set", "identities", "--N", "4")
    assert code == 2
    assert "N >= 5" in err


@pytest.mark.parametrize("size", ["0", "-3"])
def test_verify_rejects_an_empty_suite(capsys, size):
    code, out, err = run_cli(capsys, "verify", "--suite-size", size)
    assert (code, out) == (2, "")
    assert "suite size" in err


@pytest.mark.parametrize("flags", [("verify", "--rel-tol", "nan"),
                                   ("scan", "--family", "amn", "--N", "6", "--rel-tol", "inf", "--abs-tol", "inf")])
def test_non_finite_tolerances_are_usage_errors(capsys, flags):
    code, out, err = run_cli(capsys, *flags)
    assert (code, out) == (2, "")
    assert "finite" in err


def test_registry_listing(capsys):
    code, out, _ = run_cli(capsys, "registry")
    assert code == 0
    assert "rellich-gradient-weighted" in out
    assert "weighted-green" in out


def test_scan_csv_descends(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--family",
        "rellich-gradient",
        "--N",
        "5",
        "--schedule",
        "1e-2:0.1;3e-3:0.05",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,epsilon,a1,quotient,theoretical"
    q = [float(line.split(",")[3]) for line in lines[1:]]
    th = float(lines[1].split(",")[4])
    assert th == 6.25
    assert q[1] < q[0]
    assert all(v >= th - 1e-9 for v in q)


def test_scan_notes_uncertified_steps_on_stderr(capsys):
    """The K = 2 direct path leaves quadratures unconverged: stderr names each
    such step with its count, and stdout is the plain CSV."""
    from rellich import minseq

    code, out, err = run_cli(capsys, "scan", "--family", "rellich-improved", "--N", "6", "--K", "2")
    family = minseq.ScanFamily.RELLICH_IMPROVED
    result = minseq.scan_to_limit(family, minseq.default_schedule(family, 6, K=2))
    assert code == 0
    assert out == minseq.scan_result_csv(result)
    steps = ", ".join(f"{i} ({n})" for i, n in enumerate(result.unconverged) if n)
    assert steps
    assert f"note: unconverged quadratures at scan steps {steps}; those quotients are not certified\n" in err


def test_scan_notes_a_default_schedule_with_fewer_log_factors_than_k(capsys):
    """amn's default schedule scans the pure power, one log factor at any
    K: at K = 2 stderr says so and stdout is the K = 1 scan's; amn at K = 1
    and rellich-improved at K = 2 get no such note."""
    scan = lambda family, K: run_cli(capsys, "scan", "--family", family, "--N", "6", "--K", K)
    code, out, err = scan("amn", "2")
    assert code == 0 and out == scan("amn", "1")[1]
    assert err == "note: the default amn schedule carries 1 log factor(s), not the 2 of --K\n"
    for family, K in (("amn", "1"), ("rellich-improved", "2")):
        assert "log factor" not in scan(family, K)[2]


def test_scan_plain_family_past_the_quadrature_floor(capsys):
    """A single-log rellich-gradient scan reads eps below 1e-120, where the
    quadrature in s stops, and names the eps where its column sum leaves the
    double range."""
    scan = ("scan", "--family", "rellich-gradient", "--N", "6", "--schedule")
    code, out, err = run_cli(capsys, *scan, "1e-130:0.1")
    assert (code, err) == (0, "")
    quotient = float(out.splitlines()[1].split(",")[3])
    assert quotient == pytest.approx(9.0, rel=1e-12)
    code, out, err = run_cli(capsys, *scan, "1e-200:0.1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "eps = 1e-200" in err and err.count("\n") == 1


def test_scan_malformed_schedule(capsys):
    code, _, err = run_cli(capsys, "scan", "--family", "amn", "--N", "30", "--schedule", "oops")
    assert code == 2
    assert "schedule" in err


def test_scan_unknown_family(capsys):
    code, out, err = run_cli(capsys, "scan", "--family", "nope", "--N", "6")
    assert (code, out) == (2, "")
    assert "weighted-rellich-improved, rellich-weighted-improved," in err
    assert "amn, rellich-gradient-weighted," in err


@pytest.mark.parametrize(
    "family, target, flags",
    [
        ("weighted-rellich-improved", "rellich-weighted-improved", ("--N", "12", "--m", "1.5")),
        ("weighted-gradient-improved", "rellich-gradient-weighted-improved", ("--N", "9", "--m", "0.5")),
        ("amn", "rellich-gradient-weighted", ("--N", "30", "--m", "8", "--k", "2")),
    ],
)
def test_scan_family_by_its_registry_target_name(capsys, family, target, flags):
    code, out, err = run_cli(capsys, "scan", "--family", family, *flags)
    assert (code, err) == (0, "") and out.count("\n") > 1
    assert run_cli(capsys, "scan", "--family", target, *flags) == (0, out, "")


def test_determinism_identical_bytes(capsys):
    args = ("verify", "--set", "identities", "--seed", "11", "--suite-size", "6")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_config_file_supplies_defaults(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "rellich.cfg"
    cfg.write_text("seed = 11\nformat = json\n")
    monkeypatch.setenv("RELLICH_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "registry")
    assert code == 0
    json.loads(out)  # format came from the config file
    # explicit flags win over the config
    code, out, _ = run_cli(capsys, "registry", "--format", "csv")
    assert out.startswith("target,kind,description")


def test_config_file_rejects_unknown_keys(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "rellich.cfg"
    cfg.write_text("not_a_key = 3\n")
    monkeypatch.setenv("RELLICH_CONFIG", str(cfg))
    code, _, err = run_cli(capsys, "registry")
    assert code == 2
    assert "unknown config key" in err


def test_config_file_rejects_a_value_of_the_wrong_type(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "rellich.cfg"
    cfg.write_text("seed = abc\n")
    monkeypatch.setenv("RELLICH_CONFIG", str(cfg))
    code, _, err = run_cli(capsys, "registry")
    assert code == 2
    assert "'seed'" in err


def test_constants_missing_weight_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "constants", "--family", "sigma", "--N", "12")
    assert code == 2
    assert "--m" in err
    code, _, err = run_cli(capsys, "constants", "--family", "amn", "--N", "12")
    assert code == 2


# `rellich constants` stdout for every family, recorded before the families
# were routed through one table; the output must not change byte for byte
_CONSTANTS_GOLDEN = {
    "hardy --N 6": (
        "family,N,m,k,l,value,detail\n"
        "hardy,6,,,,4,\n"
    ),
    "rellich --N 6": (
        "family,N,m,k,l,value,detail\n"
        "rellich,6,,,,9,\n"
    ),
    "rellich-grad --N 6": (
        "family,N,m,k,l,value,detail\n"
        "rellich-grad,6,,,,9,\n"
    ),
    "sigma --N 12 --m 1.5": (
        "family,N,m,k,l,value,detail\n"
        "sigma,12,1.5,,,351.5625,\n"
    ),
    "sigma-bar --N 12 --m 1.5": (
        "family,N,m,k,l,value,detail\n"
        "sigma-bar,12,1.5,,,15.625,\n"
    ),
    "per-mode --N 30 --m 8 --k 2": (
        "family,N,m,k,l,value,detail\n"
        "per-mode,30,8,2,,360.29411764705884,\n"
    ),
    "amn --N 30 --m 8": (
        "family,N,m,k,l,value,detail\n"
        "amn,30,8,2,,360.29411764705884,argmin_k=2; branch=(m1_2, m2_2): candidates {2, 3}\n"
        "amn-candidate,30,8,0,,529,\n"
        "amn-candidate,30,8,1,,384,\n"
        "amn-candidate,30,8,2,,360.29411764705884,\n"
        "amn-candidate,30,8,3,,366.64406779661016,\n"
        "amn-candidate,30,8,4,,385.94117647058823,\n"
    ),
    "reduction --N 12 --m 1": (
        "family,N,m,k,l,value,detail\n"
        "reduction,12,1,,,53,\n"
    ),
    "section2 --N 9": (
        "family,N,m,k,l,value,detail\n"
        "section2,9,,,,26.5,rellich-deficit-vgrad\n"
        "section2,9,,,,0.54081632653061229,rellich-deficit-vlap\n"
        "section2,9,,,,6.25,gradrellich-deficit-vgrad\n"
        "section2,9,,,,98,v-laplacian-radial-excess\n"
        "section2,9,,,,0.12755102040816327,gradrellich-deficit-vlap\n"
        "section2,9,,,,20.25,rellich-gradient\n"
    ),
    "thresholds --N 30 --m 4": (
        "family,N,m,k,l,value,detail\n"
        "m-star,30,,,,4.1709030422491375,\n"
        "k-bar,30,,,,2,\n"
        "m1,30,,1,,4.8532311636964831,\n"
        "m2,30,,1,,11.813435502970185,\n"
        "m1,30,,2,,7,\n"
        "m2,30,,2,,9.6666666666666661,\n"
        "x0,30,4,,,9,\n"
    ),
    "higher-order --N 12 --order 2 --l 1 --variant rellich-chain": (
        "family,N,m,k,l,value,detail\n"
        "higher-order,12,2,,1,147456,laplacian order=0 weight=|x|^8\n"
        "higher-order,12,2,,1,9792,laplacian order=0 weight=|x|^8 series\n"
        "higher-order,12,2,,1,13,laplacian order=1 weight=|x|^4 series\n"
    ),
    "higher-order --N 12 --order 2 --l 1 --variant gradient-chain": (
        "family,N,m,k,l,value,detail\n"
        "higher-order,12,2,,1,11025,laplacian order=1 weight=|x|^6\n"
        "higher-order,12,2,,1,362.5,laplacian order=1 weight=|x|^6 series\n"
        "higher-order,12,2,,1,0.25,laplacian order=2 weight=|x|^2 series\n"
    ),
    "higher-order --N 12 --order 2 --l 1 --variant alternating-chain": (
        "family,N,m,k,l,value,detail\n"
        "higher-order,12,2,,1,576,laplacian order=1 weight=|x|^4\n"
        "higher-order,12,2,,1,0.25,gradient order=1 weight=|x|^2 series\n"
        "higher-order,12,2,,1,9,laplacian order=1 weight=|x|^4 series\n"
    ),
    "bessel-zero": (
        "family,N,m,k,l,value,detail\n"
        "bessel-zero,,,,,2.4048255576957729,\n"
    ),
    "sigma-bar --N 12 --m 1.5 --format json": (
        "[\n"
        "  {\n"
        '    "family": "sigma-bar",\n'
        '    "N": 12,\n'
        '    "m": 1.5,\n'
        '    "k": "",\n'
        '    "l": "",\n'
        '    "value": 15.625,\n'
        '    "detail": ""\n'
        "  }\n"
        "]\n"
    ),
}


@pytest.mark.parametrize("flags", list(_CONSTANTS_GOLDEN))
def test_constants_golden_output(capsys, flags):
    code, out, err = run_cli(capsys, "constants", "--family", *flags.split())
    assert (code, out, err) == (0, _CONSTANTS_GOLDEN[flags], "")


@pytest.mark.parametrize("family", ["sigma", "amn"])
def test_constants_golden_missing_weight(capsys, family):
    code, out, err = run_cli(capsys, "constants", "--family", family, "--N", "12")
    assert (code, out, err) == (2, "", f"error: family '{family}' requires --m\n")


# `rellich verify --set all --seed 7 --suite-size 12` stdout, recorded once
# every registry value was decided in exact arithmetic: a worst residual of
# 0 marks an identity that holds exactly.  Re-recorded when every
# Gauss-Kronrod rule became a function of its own interval's values: the
# mode-laplacian-reduction round-off residual moved from 2.3e-16 to 2.2e-16.
# Re-recorded when the suite profile's jet became Horner over its linear
# factors (`rellich.taylor.polynomial`): three round-off residuals moved,
# mode-laplacian-reduction 2.2e-16 -> 4.4e-16, mode-gradient-reduction
# 1.6e-16 -> 2.8e-16 and weighted-gradient-fside 5.5e-16 -> 3.5e-16
_VERIFY_GOLDEN = (
    "weighted-green: pass (worst 0)\n"
    "power-shift-laplacian: pass (worst 0)\n"
    "grad-weight-split: pass (worst 0)\n"
    "rellich-deficit-j: pass (worst 0)\n"
    "gradrellich-deficit-jj: pass (worst 0)\n"
    "mode-laplacian-reduction: pass (worst 4.3920114964895853e-16)\n"
    "mode-gradient-reduction: pass (worst 2.7779533920556604e-16)\n"
    "laplacian-gside: pass (worst 0)\n"
    "gradient-gside: pass (worst 0)\n"
    "rellich-deficit-gside: pass (worst 0)\n"
    "gradrellich-deficit-gside: pass (worst 0)\n"
    "v-laplacian-gside: pass (worst 0)\n"
    "v-gradient-gside: pass (worst 0)\n"
    "v-radial-gside: pass (worst 0)\n"
    "potential-gside: pass (worst 0)\n"
    "weighted-laplacian-fside: pass (worst 0)\n"
    "weighted-gradient-fside: pass (worst 3.4948445222653333e-16)\n"
    "weighted-power-shift-laplacian: pass (worst 0)\n"
    "weighted-grad-split: pass (worst 0)\n"
    "weighted-rellich-deficit: pass (worst 0)\n"
    "hardy-improved: pass (worst 4.578693922160161e-10)\n"
    "hardy-improved-weighted: pass (worst 1.5481625794954029e-08)\n"
    "rellich: pass (worst 4.1521133633910705e-07)\n"
    "rellich-gradient: pass (worst 2.5914788682742503e-07)\n"
    "rellich-deficit-vgrad: pass (worst 1.4192689586087274e-07)\n"
    "gradrellich-deficit-vgrad: pass (worst 1.4192689586087274e-07)\n"
    "v-laplacian-lower: pass (worst 1.4192689586087274e-07)\n"
    "v-laplacian-radial-excess: pass (worst 3.1348888066876088e-07)\n"
    "radial-angular-balance: pass (worst 0)\n"
    "rellich-deficit-vlap: pass (worst 1.5594472380206218e-07)\n"
    "gradrellich-deficit-vlap: pass (worst 1.4793961901331187e-07)\n"
    "radialization-rellich: pass (worst 1.6657821625374909e-08)\n"
    "radialization-gradrellich: pass (worst 1.2666319389543944e-08)\n"
    "rellich-improved: pass (worst 4.1381668953402271e-07)\n"
    "rellich-gradient-improved: pass (worst 2.5802256165791437e-07)\n"
    "rellich-weighted: pass (worst 1.3210604052705591e-05)\n"
    "rellich-weighted-improved: pass (worst 1.3110066024895442e-05)\n"
    "rellich-gradient-weighted: pass (worst 7.757655692567491e-06)\n"
    "rellich-gradient-weighted-improved: pass (worst 7.6927865946911566e-06)\n"
    "higher-order-rellich-chain: pass (worst 0.3040607637957039)\n"
    "higher-order-gradient-chain: pass (worst 574.84650482497364)\n"
    "higher-order-alternating-chain: pass (worst 0.26767285784420775)\n"
)


def test_verify_golden_output(capsys):
    code, out, err = run_cli(capsys, "verify", "--set", "all", "--seed", "7", "--suite-size", "12")
    assert (code, out, err) == (0, _VERIFY_GOLDEN, "")


# `rellich scan --family F --N 6` stdout on the default schedule (K = 1).
# The nine deficit families were re-recorded when the reduction moved to
# (0, inner] with closed-form boundary terms, which moved their quotients by
# rounding (at most 6e-16 relative here); amn and rellich-gradient when their
# integrals over (0, inner] moved from quadrature in s to the reduction's
# column sum (at most 5.9e-16 relative).  The nine deficit families again
# when every Gauss-Kronrod rule became a function of its own interval's
# values (at most 3.8e-16 relative).  The nine deficit families again
# when the reduction's densities became polynomials in a_1, built once and
# read at each step's a_1 (40 of the 124 quotients, at most 6.4e-16
# relative).
_SCAN_GOLDEN = {
    "rellich-improved": (
        "step,epsilon,a1,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,76.382804087475748,2.5\n"
        "1,0.0030000000000000001,0.10000000000000001,59.486628506711099,2.5\n"
        "2,0.001,0.10000000000000001,50.20330922148829,2.5\n"
        "3,0.00029999999999999997,0.10000000000000001,43.537345963700254,2.5\n"
        "4,7.6676480737219997e-53,0.050000000000000003,12.214756316731146,2.5\n"
        "5,5.8792826982452694e-105,0.025000000000000001,7.3528287363113121,2.5\n"
        "6,3.4565965045886174e-209,0.012500000000000001,4.9252833705570227,2.5\n"
        "7,4.9406564584124654e-324,0.0062500000000000003,3.7211958182341944,2.5\n"
        "8,4.9406564584124654e-324,0.0031250000000000002,3.1712127509728694,2.5\n"
        "9,4.9406564584124654e-324,0.0015625000000000001,2.9419377376279865,2.5\n"
        "10,4.9406564584124654e-324,0.00078125000000000004,2.8457275833776969,2.5\n"
        "11,4.9406564584124654e-324,0.00039062500000000002,2.8029142791398898,2.5\n"
    ),
    "rellich-gradient-improved": (
        "step,epsilon,a1,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,25.836851147750167,0.25\n"
        "1,0.0030000000000000001,0.10000000000000001,22.788972601260653,0.25\n"
        "2,0.001,0.10000000000000001,20.807752272682432,0.25\n"
        "3,0.00029999999999999997,0.10000000000000001,19.187163118821108,0.25\n"
        "4,7.6676480737219997e-53,0.050000000000000003,7.025049418292328,0.25\n"
        "5,5.8792826982452694e-105,0.025000000000000001,3.9289896987352297,0.25\n"
        "6,3.4565965045886174e-209,0.012500000000000001,2.1737914798119609,0.25\n"
        "7,4.9406564584124654e-324,0.0062500000000000003,1.2415945302481302,0.25\n"
        "8,4.9406564584124654e-324,0.0031250000000000002,0.800467752712269,0.25\n"
        "9,4.9406564584124654e-324,0.0015625000000000001,0.61322961453358749,0.25\n"
        "10,4.9406564584124654e-324,0.00078125000000000004,0.53391792443606667,0.25\n"
        "11,4.9406564584124654e-324,0.00039062500000000002,0.49844794239605966,0.25\n"
    ),
    "weighted-rellich-improved": (
        "step,epsilon,a1,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,76.382804087475748,2.5\n"
        "1,0.0030000000000000001,0.10000000000000001,59.486628506711099,2.5\n"
        "2,0.001,0.10000000000000001,50.20330922148829,2.5\n"
        "3,0.00029999999999999997,0.10000000000000001,43.537345963700254,2.5\n"
        "4,7.6676480737219997e-53,0.050000000000000003,12.214756316731146,2.5\n"
        "5,5.8792826982452694e-105,0.025000000000000001,7.3528287363113121,2.5\n"
        "6,3.4565965045886174e-209,0.012500000000000001,4.9252833705570227,2.5\n"
        "7,4.9406564584124654e-324,0.0062500000000000003,3.7211958182341944,2.5\n"
        "8,4.9406564584124654e-324,0.0031250000000000002,3.1712127509728694,2.5\n"
        "9,4.9406564584124654e-324,0.0015625000000000001,2.9419377376279865,2.5\n"
        "10,4.9406564584124654e-324,0.00078125000000000004,2.8457275833776969,2.5\n"
        "11,4.9406564584124654e-324,0.00039062500000000002,2.8029142791398898,2.5\n"
    ),
    "weighted-gradient-improved": (
        "step,epsilon,a1,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,25.836851147750167,0.25\n"
        "1,0.0030000000000000001,0.10000000000000001,22.788972601260653,0.25\n"
        "2,0.001,0.10000000000000001,20.807752272682432,0.25\n"
        "3,0.00029999999999999997,0.10000000000000001,19.187163118821108,0.25\n"
        "4,7.6676480737219997e-53,0.050000000000000003,7.025049418292328,0.25\n"
        "5,5.8792826982452694e-105,0.025000000000000001,3.9289896987352297,0.25\n"
        "6,3.4565965045886174e-209,0.012500000000000001,2.1737914798119609,0.25\n"
        "7,4.9406564584124654e-324,0.0062500000000000003,1.2415945302481302,0.25\n"
        "8,4.9406564584124654e-324,0.0031250000000000002,0.800467752712269,0.25\n"
        "9,4.9406564584124654e-324,0.0015625000000000001,0.61322961453358749,0.25\n"
        "10,4.9406564584124654e-324,0.00078125000000000004,0.53391792443606667,0.25\n"
        "11,4.9406564584124654e-324,0.00039062500000000002,0.49844794239605966,0.25\n"
    ),
    "amn": (
        "step,epsilon,a1,quotient,theoretical\n"
        "0,0.01,1,11.393108824962201,9\n"
        "1,0.0030000000000000001,1,9.7439334973766947,9\n"
        "2,0.001,1,9.2505758942925222,9\n"
        "3,0.00029999999999999997,1,9.0754496053177451,9\n"
    ),
    "rellich-deficit-vgrad": (
        "step,epsilon,a1,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,46.818203413759264,10\n"
        "1,0.0030000000000000001,0.10000000000000001,45.326259403265446,10\n"
        "2,0.001,0.10000000000000001,44.177534256222501,10\n"
        "3,0.00029999999999999997,0.10000000000000001,43.114221112326931,10\n"
        "4,7.6676480737219997e-53,0.050000000000000003,28.7352897817246,10\n"
        "5,5.8792826982452694e-105,0.025000000000000001,21.780683092152014,10\n"
        "6,3.4565965045886174e-209,0.012500000000000001,16.763843018186893,10\n"
        "7,4.9406564584124654e-324,0.0062500000000000003,13.677159162578967,10\n"
        "8,4.9406564584124654e-324,0.0031250000000000002,12.094746420004251,10\n"
        "9,4.9406564584124654e-324,0.0015625000000000001,11.397031749766267,10\n"
        "10,4.9406564584124654e-324,0.00078125000000000004,11.096570605474732,10\n"
        "11,4.9406564584124654e-324,0.00039062500000000002,10.961225275461144,10\n"
    ),
    "rellich-deficit-vlap": (
        "step,epsilon,a1,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,0.88640280031870644,0.625\n"
        "1,0.0030000000000000001,0.10000000000000001,0.88310077395551911,0.625\n"
        "2,0.001,0.10000000000000001,0.88042457468391999,0.625\n"
        "3,0.00029999999999999997,0.10000000000000001,0.87783579044697324,0.625\n"
        "4,7.6676480737219997e-53,0.050000000000000003,0.82726500807381231,0.625\n"
        "5,5.8792826982452694e-105,0.025000000000000001,0.78402258936192304,0.625\n"
        "6,3.4565965045886174e-209,0.012500000000000001,0.73642411805395203,0.625\n"
        "7,4.9406564584124654e-324,0.0062500000000000003,0.69507793526361772,0.625\n"
        "8,4.9406564584124654e-324,0.0031250000000000002,0.66841204288075406,0.625\n"
        "9,4.9406564584124654e-324,0.0015625000000000001,0.655113579931208,0.625\n"
        "10,4.9406564584124654e-324,0.00078125000000000004,0.64905242469629221,0.625\n"
        "11,4.9406564584124654e-324,0.00039062500000000002,0.64625197162609649,0.625\n"
    ),
    "gradrellich-deficit-vgrad": (
        "step,epsilon,a1,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,37.818203413759264,1\n"
        "1,0.0030000000000000001,0.10000000000000001,36.326259403265453,1\n"
        "2,0.001,0.10000000000000001,35.177534256222508,1\n"
        "3,0.00029999999999999997,0.10000000000000001,34.114221112326938,1\n"
        "4,7.6676480737219997e-53,0.050000000000000003,19.7352897817246,1\n"
        "5,5.8792826982452694e-105,0.025000000000000001,12.780683092152017,1\n"
        "6,3.4565965045886174e-209,0.012500000000000001,7.7638430181868969,1\n"
        "7,4.9406564584124654e-324,0.0062500000000000003,4.6771591625789712,1\n"
        "8,4.9406564584124654e-324,0.0031250000000000002,3.0947464200042529,1\n"
        "9,4.9406564584124654e-324,0.0015625000000000001,2.3970317497662652,1\n"
        "10,4.9406564584124654e-324,0.00078125000000000004,2.096570605474732,1\n"
        "11,4.9406564584124654e-324,0.00039062500000000002,1.9612252754611439,1\n"
    ),
    "v-laplacian-radial-excess": (
        "step,epsilon,a1,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,105.6364068275185,32\n"
        "1,0.0030000000000000001,0.10000000000000001,102.65251880653086,32\n"
        "2,0.001,0.10000000000000001,100.35506851244496,32\n"
        "3,0.00029999999999999997,0.10000000000000001,98.228442224653847,32\n"
        "4,7.6676480737219997e-53,0.050000000000000003,69.470579563449178,32\n"
        "5,5.8792826982452694e-105,0.025000000000000001,55.561366184304028,32\n"
        "6,3.4565965045886174e-209,0.012500000000000001,45.52768603637378,32\n"
        "7,4.9406564584124654e-324,0.0062500000000000003,39.354318325157934,32\n"
        "8,4.9406564584124654e-324,0.0031250000000000002,36.189492840008498,32\n"
        "9,4.9406564584124654e-324,0.0015625000000000001,34.794063499532534,32\n"
        "10,4.9406564584124654e-324,0.00078125000000000004,34.193141210949463,32\n"
        "11,4.9406564584124654e-324,0.00039062500000000002,33.922450550922285,32\n"
    ),
    "gradrellich-deficit-vlap": (
        "step,epsilon,a1,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,0.71600700079676582,0.0625\n"
        "1,0.0030000000000000001,0.10000000000000001,0.70775193488879762,0.0625\n"
        "2,0.001,0.10000000000000001,0.70106143670979948,0.0625\n"
        "3,0.00029999999999999997,0.10000000000000001,0.69458947611743327,0.0625\n"
        "4,7.6676480737219997e-53,0.050000000000000003,0.56816252018453017,0.0625\n"
        "5,5.8792826982452694e-105,0.025000000000000001,0.46005647340480749,0.0625\n"
        "6,3.4565965045886174e-209,0.012500000000000001,0.34106029513487995,0.0625\n"
        "7,4.9406564584124654e-324,0.0062500000000000003,0.23769483815904469,0.0625\n"
        "8,4.9406564584124654e-324,0.0031250000000000002,0.17103010720188505,0.0625\n"
        "9,4.9406564584124654e-324,0.0015625000000000001,0.13778394982801995,0.0625\n"
        "10,4.9406564584124654e-324,0.00078125000000000004,0.1226310617407306,0.0625\n"
        "11,4.9406564584124654e-324,0.00039062500000000002,0.11562992906524094,0.0625\n"
    ),
    "rellich-gradient": (
        "step,epsilon,a1,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,9.0950081017966262,9\n"
        "1,0.0030000000000000001,0.10000000000000001,9.0098446487783495,9\n"
        "2,0.001,0.10000000000000001,9.0012284097040833,9\n"
        "3,0.00029999999999999997,0.10000000000000001,9.0001250395959058,9\n"
        "4,0.00029999999999999997,0.050000000000000003,9.0000859065389864,9\n"
        "5,0.00029999999999999997,0.025000000000000001,9.0000711721623752,9\n"
        "6,0.00029999999999999997,0.012500000000000001,9.0000647746386164,9\n"
        "7,0.00029999999999999997,0.0062500000000000003,9.0000617932749112,9\n"
        "8,0.00029999999999999997,0.0031250000000000002,9.0000603540744084,9\n"
        "9,0.00029999999999999997,0.0015625000000000001,9.0000596470010574,9\n"
        "10,0.00029999999999999997,0.00078125000000000004,9.0000592965540918,9\n"
        "11,0.00029999999999999997,0.00039062500000000002,9.0000591220978414,9\n"
    ),
}


@pytest.mark.parametrize("family", list(_SCAN_GOLDEN))
def test_scan_golden_output(capsys, family):
    code, out, err = run_cli(capsys, "scan", "--family", family, "--N", "6")
    assert (code, out, err) == (0, _SCAN_GOLDEN[family], "")


# `rellich scan --family F --N 6 --K 2` stdout on the default K = 2 schedule,
# whose integrals over (0, inner] run the quadrature in s.  Re-recorded when
# every Gauss-Kronrod rule became a function of its own interval's values
# (at most 1.3e-15 relative).
_SCAN_K2_GOLDEN = {
    "rellich-improved": (
        "step,epsilon,a1,a2,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,0.10000000000000001,259.83107972865918,2.5\n"
        "1,0.0030000000000000001,0.10000000000000001,0.10000000000000001,226.78663758553847,2.5\n"
        "2,0.001,0.10000000000000001,0.10000000000000001,208.77526727896867,2.5\n"
        "3,0.00029999999999999997,0.10000000000000001,0.10000000000000001,196.01522698779573,2.5\n"
        "4,0.00029999999999999997,0.050000000000000003,0.10000000000000001,179.43129381760517,2.5\n"
        "5,0.00029999999999999997,0.025000000000000001,0.10000000000000001,171.45640617280972,2.5\n"
        "6,0.00029999999999999997,0.025000000000000001,0.050000000000000003,165.19011384594222,2.5\n"
        "7,0.00029999999999999997,0.025000000000000001,0.025000000000000001,162.13395560210955,2.5\n"
    ),
    "gradrellich-deficit-vlap": (
        "step,epsilon,a1,a2,quotient,theoretical\n"
        "0,0.01,0.10000000000000001,0.10000000000000001,0.65669353470574543,0.0625\n"
        "1,0.0030000000000000001,0.10000000000000001,0.10000000000000001,0.6293248334511351,0.0625\n"
        "2,0.001,0.10000000000000001,0.10000000000000001,0.60528696231727541,0.0625\n"
        "3,0.00029999999999999997,0.10000000000000001,0.10000000000000001,0.580650830630561,0.0625\n"
        "4,0.00029999999999999997,0.050000000000000003,0.10000000000000001,0.55141773235787106,0.0625\n"
        "5,0.00029999999999999997,0.025000000000000001,0.10000000000000001,0.53512894890119866,0.0625\n"
        "6,0.00029999999999999997,0.025000000000000001,0.050000000000000003,0.52388211827439901,0.0625\n"
        "7,0.00029999999999999997,0.025000000000000001,0.025000000000000001,0.51813521797463813,0.0625\n"
    ),
}


@pytest.mark.parametrize("family", list(_SCAN_K2_GOLDEN))
def test_scan_k2_golden_output(capsys, family):
    code, out, _ = run_cli(capsys, "scan", "--family", family, "--N", "6", "--K", "2")
    assert (code, out) == (0, _SCAN_K2_GOLDEN[family])


def test_scan_stdout_digest_golden(capsys):
    """sha256 over `rellich scan` of every family at N = 6, 9 and 30 with
    K = 1 and 2 (66 runs), each run's stdout after a "family N K exit-code"
    line."""
    import hashlib

    digest = hashlib.sha256()
    for family in rellich.ScanFamily:
        for N in ("6", "9", "30"):
            for K in ("1", "2"):
                code, out, _ = run_cli(capsys, "scan", "--family", family.value, "--N", N, "--K", K)
                digest.update(f"{family.value} {N} {K} {code}\n{out}".encode())
    assert digest.hexdigest() == "f63a1e8023fd5072aa552894c37d79791f17b71dc7719b05107b81876b842f2c"


def test_scan_refuses_a_multi_log_step_the_quadrature_cannot_resolve(capsys):
    """At eps = 1e-30 the K = 2 quadrature's error estimate dwarfs the
    numerator (the quotient read 32171875733342.062): an error, exit 2."""
    scan = ("scan", "--family", "rellich-improved", "--N", "6", "--K", "2", "--schedule")
    code, out, err = run_cli(capsys, *scan, "1e-30:0.05:0.05")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "eps = 1e-30" in err and err.count("\n") == 1


def test_config_k_sets_verify_series_terms_not_scan_log_factors(capsys, tmp_path, monkeypatch):
    """The config's K is verify's series count; a scan's number of log
    factors comes only from scan --K."""
    verify = ("verify", "--set", "inequalities", "--seed", "1", "--suite-size", "4")
    scan = ("scan", "--family", "rellich-improved", "--N", "6")
    _, verify_k2, _ = run_cli(capsys, *verify, "--K", "2")
    _, verify_default, _ = run_cli(capsys, *verify)
    _, scan_default, _ = run_cli(capsys, *scan)
    cfg = tmp_path / "rellich.cfg"
    cfg.write_text("K = 2\n")
    monkeypatch.setenv("RELLICH_CONFIG", str(cfg))
    assert run_cli(capsys, *verify)[1] == verify_k2 != verify_default
    code, out, _ = run_cli(capsys, *scan)
    assert (code, out) == (0, scan_default)
    assert out.startswith("step,epsilon,a1,quotient,theoretical\n")
