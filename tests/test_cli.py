import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import imexbdf
from imexbdf.bdf_coeffs import bdf_scheme
from imexbdf.cli import main
from imexbdf.config import parse_config
from imexbdf.stability import von_neumann_sweep

MANUFACTURED = """
[problem]
example = 1
points = 16
a = 1 + 0.5*sin(x)
b = 0.3 + 0.15*sin(x)
exact = exp(-t)*sin(pi*x)
exact_dt = -exp(-t)*sin(pi*x)

[scheme]
k = 2

[time]
tau = 0.05
steps = 20

[output]
norms = linf,l2
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def manufactured_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MANUFACTURED)
    return str(path)


class TestCoeffs:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--k", "3")
        assert code == 0
        payload = json.loads(out)
        scheme = bdf_scheme(3)
        assert payload["k"] == 3
        assert payload["delta"] == [float(d) for d in scheme.delta_f]
        assert payload["gamma"] == [float(g) for g in scheme.gamma_f]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--k", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,delta,gamma"
        assert len(lines) == 4  # header + k+1 coefficient rows

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "coeffs.json"
        code, out, _ = run_cli(capsys, "coeffs", "--k", "1", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["delta"] == [1.0, -1.0]

    def test_k_out_of_range_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--k", "9")
        assert code == 2
        assert "1..6" in err

    def test_argparse_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--k", "three"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestStability:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--k", "4")
        assert code == 0
        payload = json.loads(out)["stability"]
        assert payload["alpha_deg"] == pytest.approx(73.3516704746, abs=1e-6)
        assert payload["lambda_threshold"] == pytest.approx(3.4904425783, abs=1e-6)
        assert payload["tan_alpha"] == pytest.approx(3.3441275981, abs=1e-6)
        assert payload["a_stable"] is False

    def test_a_stable_scheme(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--k", "2")
        payload = json.loads(out)["stability"]
        assert code == 0
        assert payload["a_stable"] is True
        assert payload["alpha_deg"] == 90.0
        assert payload["lambda_threshold"] == "inf"

    def test_sweep_csv_inside_sector(self, capsys):
        code, out, _ = run_cli(
            capsys,
            *"stability --k 4 --phi 30 --rho-min 0.1 --rho-max 10".split(),
            "--rho-count",
            "5",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rho,max_root_modulus,stable"
        assert len(lines) == 6
        assert all(line.endswith("true") for line in lines[1:])

    def test_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys, *"stability --k 3 --phi 45 --rho-count 7".split()
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["sweep"]["all_stable"] is True
        assert len(payload["sweep"]["rho"]) == 7

    def test_bad_rho_range_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, *"stability --k 3 --phi 45 --rho-min -1".split()
        )
        assert code == 2 and "rho" in err


class TestSolve:
    def test_manufactured_run(self, capsys, tmp_path, manufactured_config):
        out_csv = str(tmp_path / "traj.csv")
        code, out, _ = run_cli(
            capsys, "solve", "--config", manufactured_config, "--out", out_csv
        )
        assert code == 0
        lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
        assert lines[0] == "n,t,linf,l2,err_linf,err_l2"
        assert len(lines) == 22  # header + steps + 1

        states = (tmp_path / "traj_states.csv").read_text().strip().split("\n")
        assert len(states[0].split(",")) == 2 + 2 * 16

        payload = json.loads((tmp_path / "traj.json").read_text())
        assert payload["blow_up"] is None
        assert payload["final_errors"]["linf"] < 1e-2
        assert payload["factorizations"] >= 1

    def test_config_echo_round_trips(self, capsys, tmp_path, manufactured_config):
        out_csv = str(tmp_path / "traj.csv")
        run_cli(
            capsys,
            "solve",
            "--config",
            manufactured_config,
            "--k",
            "3",
            "--tau",
            "0.02",
            "--out",
            out_csv,
        )
        payload = json.loads((tmp_path / "traj.json").read_text())
        echoed = parse_config(payload["config_text"])
        assert echoed.as_dict() == payload["config"]
        assert echoed.k == 3 and echoed.tau == 0.02

    def test_stride(self, capsys, tmp_path, manufactured_config):
        out_csv = str(tmp_path / "strided.csv")
        code, _, _ = run_cli(
            capsys,
            "solve",
            "--config",
            manufactured_config,
            "--stride",
            "5",
            "--out",
            out_csv,
        )
        assert code == 0
        lines = (tmp_path / "strided.csv").read_text().strip().split("\n")
        assert len(lines) == 6  # header + steps 0,5,10,15,20

    def test_stride_keeps_every_row_byte_for_byte(self, capsys, tmp_path, manufactured_config):
        lines = {}
        for stride in ("1", "3"):
            out_csv = str(tmp_path / f"s{stride}.csv")
            args = ("--config", manufactured_config, "--stride", stride, "--out", out_csv)
            assert run_cli(capsys, "solve", *args)[0] == 0
            for name in ("", "_states"):
                text = (tmp_path / f"s{stride}{name}.csv").read_text()
                lines[stride, name] = text.splitlines()
        for name in ("", "_states"):
            full = lines["1", name]
            assert len(full) == 22  # header + steps 0..20
            assert lines["3", name] == full[:1] + full[1::3]

    def test_negative_seed_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "seed.ini"
        cfg.write_text(
            "[problem]\nexample = 1\npoints = 16\n[scheme]\nk = 2\n"
            "[time]\ntau = 0.05\nsteps = 5\n[output]\nseed = -5\n"
        )
        args = ("solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        code, _, err = run_cli(capsys, *args)
        assert code == 2 and "output.seed" in err

    def test_byte_determinism(self, capsys, tmp_path, manufactured_config):
        out_csv = str(tmp_path / "det.csv")
        args = ("solve", "--config", manufactured_config, "--out", out_csv)
        run_cli(capsys, *args)
        first = {
            name: (tmp_path / name).read_bytes()
            for name in ("det.csv", "det_states.csv", "det.json")
        }
        run_cli(capsys, *args)
        for name, data in first.items():
            assert (tmp_path / name).read_bytes() == data

    def test_random_start_without_exact(self, capsys, tmp_path):
        cfg = tmp_path / "noexact.ini"
        cfg.write_text(
            "[problem]\nexample = 1\npoints = 16\nnonlinearity = cubic_sink\n"
            "[scheme]\nk = 2\n[time]\ntau = 0.05\nsteps = 5\n"
        )
        out_csv = str(tmp_path / "rand.csv")
        code, _, _ = run_cli(capsys, "solve", "--config", str(cfg), "--out", out_csv)
        assert code == 0
        payload = json.loads((tmp_path / "rand.json").read_text())
        assert payload["blow_up"] is None
        assert math.isfinite(payload["final_norms"]["linf"])

    def test_divergence_exits_three(self, capsys, tmp_path):
        # ratio far beyond the k=3 sector: pick the worst tau*rho from a
        # root sweep of the top grid mode and size the run to overflow
        # the divergence threshold from round-off-seeded error growth
        ratio = 28.8
        scheme = bdf_scheme(3)
        n = 16
        h = 1.0 / (n + 1)
        lam_top = 4.0 / h**2 * math.sin(math.pi * (1.0 - h) / 2.0) ** 2
        targets = np.linspace(0.2, 6.0, 117)
        sweep = von_neumann_sweep(scheme, math.atan2(ratio, 1.0), targets)
        worst = int(np.argmax(sweep.max_root_moduli))
        growth = math.log(sweep.max_root_moduli[worst])
        assert growth > 0.0, "expected an unstable window beyond the sector angle"
        tau = float(targets[worst]) / (lam_top * math.hypot(1.0, ratio))
        steps = int(2.0 * 60.0 / growth)

        cfg = tmp_path / "blowup.ini"
        cfg.write_text(
            f"[problem]\nexample = 1\npoints = {n}\nnonlinearity = none\n"
            f"a = 1\nb = {ratio}\n"
            "exact = exp(-t)*sin(pi*x)\nexact_dt = -exp(-t)*sin(pi*x)\n"
            "[scheme]\nk = 3\n"
            f"[time]\ntau = {tau!r}\nsteps = {steps}\n"
        )
        out_csv = str(tmp_path / "blow.csv")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg), "--out", out_csv)
        assert code == 3
        assert "diverged" in err
        payload = json.loads((tmp_path / "blow.json").read_text())
        assert payload["blow_up"] is not None

    def test_missing_config_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "solve",
            "--config",
            str(tmp_path / "nope.ini"),
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 2 and "cannot read config" in err

    def test_tau_required_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "notau.ini"
        cfg.write_text("[problem]\nexample = 1\npoints = 16\n[scheme]\nk = 1\n")
        code, _, err = run_cli(
            capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
        )
        assert code == 2 and "time.tau" in err

    def test_nonpositive_coefficient_exits_two(self, capsys, tmp_path):
        # 8 Dirichlet points put interfaces where cos(4 pi x) < 0
        cfg = tmp_path / "negative.ini"
        cfg.write_text(
            "[problem]\nexample = 1\npoints = 8\na = cos(4*pi*x)\n"
            "[scheme]\nk = 2\n[time]\ntau = 0.01\nsteps = 4\n"
        )
        code, _, err = run_cli(
            capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "config error" in err and "coefficient a must be positive" in err
        assert not (tmp_path / "x.csv").exists()


class TestConsistency:
    def test_outputs(self, capsys, tmp_path, manufactured_config):
        base = str(tmp_path / "cons")
        code, out, _ = run_cli(
            capsys,
            "consistency",
            "--config",
            manufactured_config,
            "--k",
            "3",
            "--tau",
            "0.02",
            "--steps",
            "10",
            "--out",
            base,
        )
        assert code == 0
        assert "max defect norm" in out
        lines = (tmp_path / "cons.csv").read_text().strip().split("\n")
        assert lines[0] == "n,t,defect_norm"
        assert len(lines) == 9  # header + steps - k + 1 defects
        payload = json.loads((tmp_path / "cons.json").read_text())
        assert payload["k"] == 3
        assert payload["norm"] == "linf"
        assert 0.0 < payload["max_defect_norm"] < 1.0
        assert 0.0 < payload["roundoff_floor"] < payload["max_defect_norm"]


class TestConverge:
    def test_passing_study(self, capsys, tmp_path, manufactured_config):
        base = str(tmp_path / "conv")
        code, out, _ = run_cli(
            capsys,
            "converge",
            "--config",
            manufactured_config,
            "--k",
            "1",
            "--tau0",
            "0.1",
            "--levels",
            "3",
            "--norms",
            "linf",
            "--assert-order",
            "--out",
            base,
        )
        assert code == 0
        assert "ok" in out
        payload = json.loads((tmp_path / "conv.json").read_text())
        assert payload["passes"]["linf"] is True
        assert payload["fits"]["linf"]["slope"] > 0.9
        lines = (tmp_path / "conv.csv").read_text().strip().split("\n")
        assert len(lines) == 4

    def test_torus_extent_in_multiples_of_pi(self, capsys, tmp_path):
        cfg = tmp_path / "torus.ini"
        cfg.write_text(
            "[problem]\nexample = 3\nextent = 0, 2*pi\npoints = 16\n"
            "exact = exp(-t)*sin(x)\nexact_dt = -exp(-t)*sin(x)\n[scheme]\nk = 2\n"
        )
        argv = ["converge", "--config", str(cfg), "--tau0", "0.1", "--levels", "3"]
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "conv"))
        assert code == 0
        payload = json.loads((tmp_path / "conv.json").read_text())
        assert payload["config"]["problem"]["extent"] == [[0.0, 2 * math.pi]]

    @pytest.mark.parametrize("extent", ["0, x", "0, 1/0"])
    def test_extent_that_is_no_constant_exits_two(self, capsys, tmp_path, extent):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MANUFACTURED.replace("points = 16", f"extent = {extent}\npoints = 16"))
        argv = ["converge", "--config", str(cfg), "--out", str(tmp_path / "conv")]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "config error" in err and "extent" in err

    def test_assert_order_failure_exits_four(self, capsys, tmp_path):
        # steady manufactured solution: errors sit at round-off level, so
        # no third-order slope can be fitted through them
        cfg = tmp_path / "steady.ini"
        cfg.write_text(
            "[problem]\nexample = 1\npoints = 16\nnonlinearity = none\n"
            "exact = sin(pi*x)\nexact_dt = 0\n"
            "[scheme]\nk = 3\n[time]\ntau0 = 0.1\nlevels = 4\n"
        )
        code, _, err = run_cli(
            capsys,
            "converge",
            "--config",
            str(cfg),
            "--assert-order",
            "--out",
            str(tmp_path / "flat"),
        )
        assert code == 4
        assert "order check failed" in err


class TestThreshold:
    def test_bracketing_ratios(self, capsys, tmp_path):
        base = str(tmp_path / "thr")
        code, out, _ = run_cli(
            capsys,
            "threshold",
            "--k",
            "3",
            "--ratios",
            "7.2,43.2",
            "--nodes",
            "12",
            "--steps",
            "1500",
            "--seed",
            "1",
            "--out",
            base,
        )
        assert code == 0
        payload = json.loads((tmp_path / "thr.json").read_text())
        assert payload["rows"][0]["bounded"] is True
        assert payload["rows"][1]["bounded"] is False
        assert payload["bracket"] == [7.2, 43.2]
        lines = (tmp_path / "thr.csv").read_text().strip().split("\n")
        assert len(lines) == 3

    def test_bad_ratios_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "threshold", "--k", "3", "--ratios", "a,b")
        assert code == 2 and "--ratios" in err

    def test_negative_seed_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "threshold", "--k", "3", "--seed", "-1")
        assert code == 2 and "seed" in err

    def test_k_two_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "threshold", "--k", "2", "--ratios", "1.0")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--k", "3", "--ratios", "nan"],
        ["threshold", "--k", "3", "--ratios", "inf"],
        ["stability", "--k", "3", "--phi", "nan"],
        ["stability", "--k", "3", "--phi", "inf"],
        ["stability", "--k", "3", "--phi", "30", "--tau", "nan"],
        ["stability", "--k", "3", "--phi", "30", "--tau", "inf"],
        ["stability", "--k", "3", "--phi", "30", "--rho-max", "inf"],
        # a line of MANUFACTURED and its replacement
        ["solve", "tau = 0.05", "tau = nan"],
        ["solve", "tau = 0.05", "tau = inf"],
        # without a and b the coefficients are the constants 1 and 0
        ["solve", "a = 1 + 0.5*sin(x)\nb = 0.3 + 0.15*sin(x)", "extent = 0, nan"],
        ["solve", "a = 1 + 0.5*sin(x)\nb = 0.3 + 0.15*sin(x)", "extent = -inf, 1"],
    ],
    ids=lambda argv: "-".join(argv).replace("--", "").replace(" ", "").replace("\n", ";"),
)
def test_non_finite_number_exits_two(capsys, tmp_path, argv):
    if argv[0] == "solve":
        cfg = tmp_path / "run.ini"
        cfg.write_text(MANUFACTURED.replace(argv[1], argv[2]))
        argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # rejected before numpy sees it
        code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "config error" in err


def child_env():
    """The environment of a child that imports the same imexbdf as this
    process, installed or not."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(imexbdf.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


class TestEnvironment:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "imexbdf.cli", "coeffs", "--k", "2"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["k"] == 2

    def test_infinite_coefficient_exits_two_without_numpy_warning(self, capfd, tmp_path):
        # 8 Dirichlet points put an interface at x = 0.5, where a = inf.
        # A child process, because pytest records warnings raised in
        # this one instead of printing them.
        cfg = tmp_path / "infinite.ini"
        cfg.write_text(
            "[problem]\nexample = 1\npoints = 8\na = 1 + 1/abs(x - 0.5)\n"
            "[scheme]\nk = 2\n[time]\ntau = 0.01\nsteps = 4\n"
        )
        argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
        env = {**child_env(), "PYTHONWARNINGS": "default"}
        code = subprocess.run([sys.executable, "-m", "imexbdf.cli", *argv], env=env).returncode
        err = capfd.readouterr().err
        assert code == 2 and "config error" in err
        assert "RuntimeWarning" not in err
