import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import case_a_params
from penning_chain.cli import main
from penning_chain.config import ConfigError, GridTooLarge, RunConfig
from penning_chain.couplings import Orientation, coupling_matrix, uniform_chain
from penning_chain.spin_chain import build_effective_hamiltonian, transfer_fidelity_curve
from penning_chain.trap_model import AnomalyMode, derive_quantities

BASE_INI = """
[trap]
f_c = 8e9
f_z = 490e6
gradient = 1800

[chain]
n_sites = 2
spacing = 10e-6

[thermal]
temperature = 0.080
l_bar = 2.0
"""


@pytest.fixture
def base_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_INI)
    return str(path)


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def body_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


class TestRunConfig:
    def test_load_and_typed_access(self, base_config):
        cfg = RunConfig.load(base_config)
        assert cfg.get("trap", "f_c") == 8e9
        assert cfg.get("chain", "n_sites", cast=int) == 2
        assert cfg.anomaly_mode() is AnomalyMode.EXACT_G
        assert cfg.anomaly_mode("approx") is AnomalyMode.APPROX_1E3
        assert cfg.orientation() is Orientation.AXIAL_Z

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[trap]\nf_c = 8e9\nwobble = 1\n")
        with pytest.raises(ConfigError, match="wobble"):
            RunConfig.load(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            RunConfig.load(path)

    def test_ambiguous_field_spec_rejected(self, tmp_path):
        path = write_config(tmp_path, "[trap]\nf_c = 8e9\nb0 = 0.29\nf_z = 490e6\n")
        cfg = RunConfig.load(path)
        with pytest.raises(ConfigError, match="b0 or f_c"):
            cfg.trap_params(AnomalyMode.EXACT_G)

    def test_field_from_cyclotron_frequency(self, base_config):
        cfg = RunConfig.load(base_config)
        params = cfg.trap_params(AnomalyMode.EXACT_G)
        # B0 chosen so that e B0 / m_e = 2 pi f_c
        assert params.omega_z_in == pytest.approx(2.0 * math.pi * 490e6, rel=1e-12)
        assert params.b == 1800.0

    def test_positions_override_uniform_chain(self, tmp_path):
        path = write_config(
            tmp_path,
            "[chain]\npositions = 0, 10e-6, 35e-6\n",
        )
        cfg = RunConfig.load(path)
        geom = cfg.geometry(Orientation.AXIAL_Z)
        assert geom.n_sites == 3
        assert geom.positions[2] == pytest.approx(35e-6)

    def test_inline_comments_stripped(self, tmp_path):
        path = write_config(tmp_path, "[trap]\nf_c = 8e9  # cyclotron\n")
        cfg = RunConfig.load(path)
        assert cfg.get("trap", "f_c") == 8e9

    def test_occupations_require_single_source(self, tmp_path, case_a):
        path = write_config(
            tmp_path, "[thermal]\ntemperature = 0.08\nk_bar = 1.0\n"
        )
        cfg = RunConfig.load(path)
        with pytest.raises(ConfigError, match="not both"):
            cfg.occupations(case_a)

    def test_bad_number_reported_with_location(self, tmp_path):
        path = write_config(tmp_path, "[trap]\nf_c = eight\n")
        cfg = RunConfig.load(path)
        with pytest.raises(ConfigError, match=r"\[trap\] f_c"):
            cfg.get("trap", "f_c")


class TestExitCodes:
    def test_ok(self, base_config, capsys):
        assert main(["freqs", "--config", base_config]) == 0
        assert "quantity,value" in capsys.readouterr().out

    def test_input_error_missing_file(self, tmp_path, capsys):
        code = main(["freqs", "--config", str(tmp_path / "missing.ini")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_input_error_bad_flag(self, capsys):
        assert main(["freqs", "--mode", "bogus"]) == 1

    def test_input_error_unknown_subcommand(self, capsys):
        assert main(["explode"]) == 1

    def test_regime_violation(self, tmp_path, capsys):
        path = write_config(tmp_path, "[trap]\nf_c = 8e9\nf_z = 4000e6\n")
        assert main(["freqs", "--config", path]) == 2
        assert "regime violation" in capsys.readouterr().err

    def test_unstable_point_is_regime_violation(self, tmp_path, capsys):
        path = write_config(tmp_path, "[trap]\nf_c = 1e9\nf_z = 900e6\n")
        assert main(["freqs", "--config", path]) == 2

    def test_acceptance_failure_from_oracle(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "[oracle]\nepsilon = 0.05\nn_max = 2\nk_max = 2\n"
        )
        assert main(["oracle", "--config", path]) == 3
        assert "overall: FAIL" in capsys.readouterr().out

    def test_oracle_passes_side_by_side(self, capsys):
        assert main(["oracle", "--orientation", "x"]) == 0
        assert "overall: PASS" in capsys.readouterr().out


class TestFreqsCommand:
    def test_csv_values(self, base_config, capsys):
        assert main(["freqs", "--config", base_config]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# penning-chain freqs")
        rows = dict(
            line.split(",", 1) for line in body_lines(out)[1:] if "," in line
        )
        assert float(rows["omega_a"]) == pytest.approx(5.8290467263e7, rel=1e-9)
        assert float(rows["epsilon"]) == pytest.approx(1.4099657571e-2, rel=1e-9)

    def test_mode_flag_switches_anomaly(self, base_config, capsys):
        main(["freqs", "--config", base_config, "--mode", "approx"])
        out = capsys.readouterr().out
        assert "# anomaly_mode: approx" in out
        rows = dict(
            line.split(",", 1) for line in body_lines(out)[1:] if "," in line
        )
        assert float(rows["omega_a"]) == pytest.approx(5.0265482457e7, rel=1e-9)

    def test_json_format(self, base_config, capsys):
        assert main(["freqs", "--config", base_config, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["constants"] == "CODATA-2018"
        assert payload["regime_ok"] is True
        assert payload["quantities"]["omega_s"] == pytest.approx(
            5.0323772925e10, rel=1e-9
        )

    def test_out_writes_file(self, base_config, tmp_path, capsys):
        target = tmp_path / "freqs.csv"
        assert main(["freqs", "--config", base_config, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert "omega_c," in target.read_text()


class TestCouplingsCommand:
    def test_csv(self, base_config, capsys):
        assert main(["couplings", "--config", base_config]) == 0
        out = capsys.readouterr().out
        body = body_lines(out)
        assert body[0] == "i,j,d_ij,Jz,Jxy,mode"
        fields = body[1].split(",")
        assert float(fields[4]) == pytest.approx(2.1605828877e4, rel=1e-9)

    def test_json_pairs(self, base_config, capsys):
        assert main(["couplings", "--config", base_config, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["pairs"]) == 1
        assert payload["pairs"][0]["jxy"] == pytest.approx(2.1605828877e4, rel=1e-9)


class TestTransferCommand:
    def test_default_curve(self, base_config, capsys):
        assert main(["transfer", "--config", base_config]) == 0
        out = capsys.readouterr().out
        assert "# theta: average" in out
        body = body_lines(out)
        assert body[0] == "t,fidelity,fidelity_raw"
        assert len(body) == 1 + 512
        first = body[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.5, abs=1e-9)

    def test_fixed_angle_curve(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            BASE_INI + "\n[transfer]\ntheta = 3.141592653589793\nn_points = 3\n",
        )
        assert main(["transfer", "--config", path]) == 0
        body = body_lines(capsys.readouterr().out)
        assert len(body) == 1 + 3
        assert float(body[1].split(",")[1]) == pytest.approx(0.0, abs=1e-9)

    def test_bad_theta_is_input_error(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_INI + "\n[transfer]\ntheta = north\n")
        assert main(["transfer", "--config", path]) == 1

    def test_removed_subspace_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_INI + "\n[transfer]\nsubspace = true\n")
        assert main(["transfer", "--config", path]) == 1
        assert "unknown key 'subspace'" in capsys.readouterr().err


@settings(max_examples=25, deadline=None, database=None)
@given(
    n_sites=st.integers(2, 6),
    orientation=st.sampled_from(list(Orientation)),
    gradient=st.floats(300.0, 1800.0),
    spacing=st.floats(8e-6, 20e-6),
    theta=st.one_of(st.none(), st.floats(0.0, math.pi)),
)
def test_transfer_curve_matches_dense_path(tmp_path_factory, n_sites, orientation, gradient,
                                           spacing, theta):
    ini = (
        f"[trap]\nf_c = 8e9\nf_z = 490e6\ngradient = {gradient!r}\n"
        f"[chain]\nn_sites = {n_sites}\nspacing = {spacing!r}\n"
        f"orientation = {orientation.value}\n"
        f"[transfer]\ntheta = {'average' if theta is None else repr(theta)}\nn_points = 64\n"
    )
    path = write_config(tmp_path_factory.mktemp("transfer"), ini)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["transfer", "--config", path, "--format", "json"]) == 0
    payload = json.loads(out.getvalue())
    assert payload["meta"]["path"] == "subspace"

    dq = derive_quantities(case_a_params(gradient=gradient))
    cm = coupling_matrix(dq, uniform_chain(n_sites, spacing, orientation))
    t = np.array(payload["t"])
    dense = transfer_fidelity_curve(
        build_effective_hamiltonian(cm, dq.omega_s), theta, 0.0, t,
        bloch_average=theta is None,
    )
    # rounding of phases ~ eps * (N omega_s / 2) * t on both paths
    atol = 16.0 * np.finfo(float).eps * 0.5 * n_sites * dq.omega_s * t[-1]
    assert np.allclose(payload["fidelity"], dense.fidelity, rtol=0.0, atol=atol)
    assert np.allclose(payload["fidelity_raw"], dense.fidelity_raw, rtol=0.0, atol=atol)


class TestFidelityCommand:
    def test_budget_keys(self, base_config, capsys):
        assert main(["fidelity", "--config", base_config]) == 0
        rows = dict(
            line.split(",", 1)
            for line in body_lines(capsys.readouterr().out)[1:]
        )
        assert float(rows["f_total"]) == pytest.approx(1.0 - 1.769653e-2, rel=1e-6)
        assert float(rows["error_residual"]) == pytest.approx(1.134577e-2, rel=1e-6)
        assert rows["in_range"] == "yes"


class TestTable1Command:
    def test_passes_and_reports_gates(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "# overall: PASS" in out
        body = body_lines(out)
        assert len(body) == 1 + 6
        header = body[0].split(",")
        i_ratio = header.index("rad_reading_ratio")
        i_mis = header.index("cyclic_misread_factor")
        ratios = [float(line.split(",")[i_ratio]) for line in body[1:]]
        misreads = [float(line.split(",")[i_mis]) for line in body[1:]]
        assert all(0.5 <= r <= 2.0 for r in ratios)
        assert sum(m > 5.0 for m in misreads) >= 4

    def test_json_gates(self, capsys):
        assert main(["table1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["gates"]["overall"] is True
        assert len(payload["rows"]) == 6


class TestSweepCommand:
    def test_grid(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            """
[trap]
f_c = 8e9
f_z = 490e6

[chain]
spacing = 10e-6

[thermal]
temperature = 0.080
l_bar = 2.0

[sweep]
axes = gradient, spacing
gradient = 600:1800:3
spacing = 1e-5:2e-5:2
""",
        )
        assert main(["sweep", "--config", path]) == 0
        body = body_lines(capsys.readouterr().out)
        assert body[0].startswith("b,d,omega_z,omega_c,jxy")
        assert len(body) == 1 + 6
        # the reference design point appears in the grid
        row = body[5].split(",")
        assert float(row[0]) == 1800.0
        assert float(row[4]) == pytest.approx(2.1605828877e4, rel=1e-9)

    def test_unstable_points_become_nan_rows(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            """
[trap]
f_z = 490e6
gradient = 1800

[chain]
spacing = 10e-6

[sweep]
axes = f_c
f_c = 0.4e9:8e9:2
""",
        )
        assert main(["sweep", "--config", path]) == 0
        body = body_lines(capsys.readouterr().out)
        first = body[1].split(",")
        assert first[4] == "nan"
        assert first[9] == "0"
        second = body[2].split(",")
        assert float(second[4]) > 0.0

    def test_oversized_grid_rejected(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            """
[trap]
f_c = 8e9
f_z = 490e6

[chain]
spacing = 10e-6

[sweep]
axes = gradient, spacing
gradient = 0:1800:1001
spacing = 1e-6:1e-5:1001
""",
        )
        assert main(["sweep", "--config", path]) == 1
        assert "budget" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_reruns(self, base_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert main(["transfer", "--config", base_config, "--out", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_twelve_digit_floats(self, base_config, capsys):
        main(["freqs", "--config", base_config])
        out = capsys.readouterr().out
        rows = dict(
            line.split(",", 1) for line in body_lines(out)[1:] if "," in line
        )
        assert rows["omega_c"] == "50265482457.4"
