import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import criticalgabor
from criticalgabor import certainty, expansion, verify
from criticalgabor import (CoefficientSet, Disk, Rotation, atom, atom_inner, default_zak_size, gabor_transform,
                           hermite_signal, metaplectic_apply, numerics, order_m_coefficients,
                           relaxed_coefficients, sharp_point, signal_from_csv)
from criticalgabor.cli import READS, RunConfig, _dump_json, build_parser, main


@pytest.fixture()
def workdir(tmp_path):
    hermite_signal(0).to_csv(tmp_path / "h0.csv")
    atom((0, 0)).to_csv(tmp_path / "e0.csv")
    atom((0.5, 0.5)).to_csv(tmp_path / "esharp.csv")
    (tmp_path / "disk.json").write_text(json.dumps({"type": "disk", "center": [0, 0], "radius": 1.5}))
    c = CoefficientSet({(0, 0, False): 1.0, (1, 0, False): 0.5j})
    (tmp_path / "c.json").write_text(c.to_json())
    return tmp_path


class TestConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_odd_n_rejected(self):
        # the step fixes N = 1/(2h); at h = 1/2 that is 1, and every coarser grid divides it
        with pytest.raises(ValueError, match=r"h=0\.5 has no even Zak midpoint grid"):
            default_zak_size(0.5)

    def test_incompatible_n_rejected(self):
        for h in (0.3, 0.024, 0.0, -1.0 / 64.0):  # 1/(2h) is no positive integer
            with pytest.raises(ValueError, match=f"h={h} has no even Zak midpoint grid"):
                default_zak_size(h)
        assert default_zak_size(1.0 / 64.0) == 32 and default_zak_size(1.0 / 32.0) == 16

    def test_unknown_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 8.0, "bogus": 1}))

        class Args:
            config = str(cfg)

        from criticalgabor.cli import load_config
        with pytest.raises(ValueError, match="unknown fields"):
            load_config(Args(), "analyze")

    def test_hash_stable(self):
        assert RunConfig().hash() == RunConfig().hash()
        assert RunConfig().hash() != RunConfig(Q=9).hash()

    def test_defaults_are_the_librarys(self):
        # the defaults are read from the library; the hash of a default config is the one
        # every earlier run recorded
        assert RunConfig().hash() == "7ae67fc127473a2e"
        assert (RunConfig().T, RunConfig().h) == (numerics.DEFAULT_T, numerics.DEFAULT_H)

    def test_config_file_with_flag_override(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"delta": 1.5, "dlam": 0.125}))
        rc = main(["analyze", "--config", str(cfg), "--dlam", "0.25", "--box", "2.0",
                   "--input", str(workdir / "h0.csv"),
                   "--out-summary", str(workdir / "cfgsum.json")])
        assert rc == 0
        summary = json.loads((workdir / "cfgsum.json").read_text())
        # flag override (dlam=0.25) and file value (delta=1.5) both land in the hash
        assert summary["config_hash"] == RunConfig(delta=1.5, dlam=0.25, box=2.0).hash()


class TestAnalyze:
    def test_parseval_summary(self, workdir, capsys):
        rc = main(["analyze", "--input", str(workdir / "h0.csv"),
                   "--out-summary", str(workdir / "s.json")])
        assert rc == 0
        summary = json.loads((workdir / "s.json").read_text())
        assert 0.999 <= summary["parseval_ratio"] <= 1.001
        assert "config_hash" in summary

    def test_byte_identical_reruns(self, workdir):
        for name in ("s1.json", "s2.json"):
            assert main(["analyze", "--input", str(workdir / "h0.csv"),
                         "--out-summary", str(workdir / name)]) == 0
        assert (workdir / "s1.json").read_bytes() == (workdir / "s2.json").read_bytes()

    def test_empty_signal_is_input_error(self, workdir, capsys):
        (workdir / "empty.csv").write_text("x,re,im\n")
        rc = main(["analyze", "--input", str(workdir / "empty.csv")])
        assert rc == 2

    def test_malformed_reports_line_number(self, workdir, capsys):
        (workdir / "bad.csv").write_text("x,re,im\n0.0,nope,0.0\n")
        rc = main(["analyze", "--input", str(workdir / "bad.csv")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, args", [
        ("expand", ["--out", "o.out"]), ("analyze", ["--out-summary", "o.out"]),
        ("rotate", ["--angle", "0.5", "--out", "o.out"]),
        ("decompose", ["--domain", "disk.json", "--r", "3", "--out", "o.out"])])
    def test_non_finite_sample_is_input_error(self, workdir, monkeypatch, capsys, command, args, value):
        # a nan or inf sample would otherwise flow into the outputs (NaN coefficients that
        # synthesize refuses, a NaN norm, a CSV of nan); the reader names the line instead
        monkeypatch.chdir(workdir)
        lines = Path("h0.csv").read_text().splitlines()
        x, _, im = lines[400].split(",")
        lines[400] = f"{x},{value},{im}"
        Path("bad.csv").write_text("\n".join(lines) + "\n")
        assert main([command, "--input", "bad.csv", *args]) == 2
        err = capsys.readouterr().err
        assert "bad.csv: non-finite value at line 401" in err
        assert not Path("o.out").exists()

    def test_field_csv(self, workdir):
        rc = main(["analyze", "--input", str(workdir / "h0.csv"), "--box", "2.0",
                   "--dlam", "0.25", "--out-field", str(workdir / "f.csv")])
        assert rc == 0
        assert (workdir / "f.csv").read_text().startswith("p,theta,re,im")

    def test_step_with_no_period_is_refused_before_any_output(self, workdir, capsys):
        field, summary = workdir / "f_refused.csv", workdir / "s_refused.json"
        rc = main(["analyze", "--input", str(workdir / "h0.csv"), "--dlam", "0.123456789",
                   "--out-field", str(field), "--out-summary", str(summary)])
        assert rc == 2
        assert "dlam=0.123456789" in capsys.readouterr().err
        assert not field.exists() and not summary.exists()

    def test_step_with_too_many_spectrum_bins_is_refused_before_any_output(self, workdir, capsys):
        # 16/49: dlam h = 1/196 has a theta period, but the p step folds onto 16807 > 16 N bins
        field, summary = workdir / "f_bins.csv", workdir / "s_bins.json"
        rc = main(["analyze", "--input", str(workdir / "h0.csv"), "--dlam", "0.32653061224489793",
                   "--out-field", str(field), "--out-summary", str(summary)])
        assert rc == 2
        assert "dlam=0.32653061224489793" in capsys.readouterr().err
        assert not field.exists() and not summary.exists()


class TestSynthesizeExpand:
    def test_roundtrip_atom(self, workdir):
        rc = main(["synthesize", "--coeffs", str(workdir / "c.json"),
                   "--out", str(workdir / "sig.csv")])
        assert rc == 0
        sig = signal_from_csv(workdir / "sig.csv")
        assert abs(sig.norm() - np.sqrt(1.0 + 0.25 + 2 * (0.5j * np.conj(
            np.exp(1j * np.pi * 0 - np.pi / 2))).real)) < 1.0  # sanity scale only

    def test_expand_gaussian_unit_coefficient(self, workdir):
        rc = main(["expand", "--input", str(workdir / "e0.csv"),
                   "--out", str(workdir / "exp.json")])
        assert rc == 0
        payload = json.loads((workdir / "exp.json").read_text())
        units = [(c["k"], c["j"], c["sharp"]) for c in payload["coefficients"]
                 if abs(complex(c["re"], c["im"])) > 0.5]
        assert units == [(0, 0, False)]
        assert payload["diagnostics"]["residual"] <= 2e-3

    def test_expand_sharp_atom(self, workdir):
        rc = main(["expand", "--input", str(workdir / "esharp.csv"),
                   "--out", str(workdir / "exps.json")])
        assert rc == 0
        payload = json.loads((workdir / "exps.json").read_text())
        sharp = [c for c in payload["coefficients"] if c["sharp"]]
        assert len(sharp) == 1
        assert abs(complex(sharp[0]["re"], sharp[0]["im"]) - 1.0) < 1e-5
        lattice = [abs(complex(c["re"], c["im"])) for c in payload["coefficients"] if not c["sharp"]]
        assert max(lattice) < 1e-3

    def test_expand_order_cap(self, workdir):
        assert main(["expand", "--input", str(workdir / "e0.csv"), "--m", "7"]) == 2

    def test_expand_order_m_payload(self, workdir):
        rc = main(["expand", "--input", str(workdir / "e0.csv"), "--m", "1",
                   "--R", "3", "--out", str(workdir / "expm.json")])
        assert rc == 0
        payload = json.loads((workdir / "expm.json").read_text())
        assert len(payload["sharp_block"]) == 2
        assert len(payload["nodes"]) == 2


    @pytest.mark.parametrize("m", [0, 2])
    def test_expand_runs_on_the_zak_grid_of_its_step(self, workdir, monkeypatch, capsys, m):
        # h = 1/32 fixes the Zak grid N = 16; no flag or config key may set another
        monkeypatch.chdir(workdir)
        f = hermite_signal(2, 8.0, 1.0 / 32.0)
        f.to_csv("h32.csv")
        grid = ["expand", "--input", "h32.csv", "--h", "0.03125", "--m", str(m), "--R", "3"]
        assert main(grid + ["--out", "o.json"]) == 0
        exp = relaxed_coefficients(f, 3) if m == 0 else order_m_coefficients(f, m, R=3)
        assert json.loads(Path("o.json").read_text())["coefficients"] == \
            json.loads(exp.full_coefficients().to_json())["coefficients"]
        assert main(grid + ["--N", "16", "--out", "n.json"]) == 2
        assert refusal("expand", ["--N", "16"]) in capsys.readouterr().err
        assert not Path("n.json").exists()

    @pytest.mark.parametrize("command", ["expand", "verify"])
    def test_a_step_with_no_even_zak_grid_is_refused(self, workdir, monkeypatch, capsys, command):
        # at h = 1/2 the Zak grid would be N = 1/(2h) = 1, which has the theta zero as its node
        monkeypatch.chdir(workdir)
        hermite_signal(0, 8.0, 0.5).to_csv("h05.csv")
        args = ["--input", "h05.csv"] if command == "expand" else []
        assert main([command, "--h", "0.5", "--out", "o.json"] + args) == 2
        captured = capsys.readouterr()
        assert "h=0.5 has no even Zak midpoint grid" in captured.err
        assert captured.out == ""
        assert not Path("o.json").exists()

    def test_nonuniform_csv_rejected(self, workdir, capsys):
        lines = (workdir / "e0.csv").read_text().splitlines()
        x, re_, im_ = lines[400].split(",")
        lines[400] = f"{float(x) + (1.0 / 64.0) / 3.0!r},{re_},{im_}"
        (workdir / "bent.csv").write_text("\n".join(lines) + "\n")
        assert main(["expand", "--input", str(workdir / "bent.csv")]) == 2
        assert "not uniform" in capsys.readouterr().err


class TestDecomposeRotate:
    def test_decompose_payload(self, workdir):
        rc = main(["decompose", "--input", str(workdir / "e0.csv"),
                   "--domain", str(workdir / "disk.json"), "--r", "3",
                   "--out", str(workdir / "dec.json"),
                   "--residual-csv", str(workdir / "res.csv")])
        assert rc == 0
        payload = json.loads((workdir / "dec.json").read_text())
        assert payload["report"]["residual_norm"] <= payload["report"]["bound_value"]
        assert (workdir / "res.csv").exists()

    def test_decompose_rejects_an_unread_domain_key(self, workdir, capsys):
        spec = {"type": "disk", "center": [0, 0], "radius": 1.5, "resolution": 0.01}
        (workdir / "res.json").write_text(json.dumps(spec))
        rc = main(["decompose", "--input", str(workdir / "e0.csv"), "--domain", str(workdir / "res.json"),
                   "--r", "3", "--out", str(workdir / "dec.json")])
        assert rc == 2
        assert "resolution" in capsys.readouterr().err
        assert not (workdir / "dec.json").exists()

    @pytest.mark.parametrize("implicit, explicit", [
        (["--config", "m1.json", "--r", "3"], ["--m", "1", "--r", "3"]),
        (["--r", "6"], ["--m", "1", "--r", "6"]),
    ], ids=["m_from_config", "m_default"])
    def test_decompose_runs_the_hashed_order(self, workdir, monkeypatch, implicit, explicit):
        monkeypatch.chdir(workdir)
        Path("m1.json").write_text(json.dumps({"m": 1}))
        # r = 6 around a disk of radius 0.5 needs the T = 12 grid
        atom((0, 0), 12.0, 1.0 / 64.0).to_csv("e12.csv")
        Path("small.json").write_text(json.dumps({"type": "disk", "center": [0, 0], "radius": 0.5}))
        grid = ["--input", "e0.csv", "--domain", "disk.json"]
        if "6" in implicit:
            grid = ["--input", "e12.csv", "--T", "12", "--domain", "small.json"]
        for name, flags in (("implicit.json", implicit), ("explicit.json", explicit)):
            assert main(["decompose", "--out", name] + grid + flags) == 0
        assert Path("implicit.json").read_text() == Path("explicit.json").read_text()

    @pytest.mark.parametrize("h", [1.0 / 98.0, 0.0102040816326531])
    @pytest.mark.parametrize("command", ["rotate", "synthesize"])
    def test_a_step_off_1_over_h_runs_where_no_transform_runs(self, workdir, monkeypatch, command, h):
        # 98 fl(1/98) rounds to 1 - 2^-53, and the rule reads that h as 1/98; the 16-digit h
        # misses 1/98 by 4e-15 of it, so the rule refuses it, but only where a transform runs
        # (test_a_range_rule_is_refused_by_the_call_that_applies_it[h_off_1_over_H])
        monkeypatch.chdir(workdir)
        hermite_signal(0, 8.0, h).to_csv("h98.csv")
        args = {"rotate": ["--input", "h98.csv", "--angle", "0.5", "--out", "o.csv"],
                "synthesize": ["--coeffs", "c.json", "--out", "o.csv"]}[command]
        assert main([command, "--h", repr(h)] + args) == 0
        if command == "synthesize":
            want = atom((0, 0), 8.0, h).values + 0.5j * atom((1, 0), 8.0, h).values
            assert np.abs(signal_from_csv("o.csv").values - want).max() < 1e-12

    def test_a_csv_at_1_over_98_is_read_on_the_config_grid(self, workdir, monkeypatch):
        # the CSV's x[1] - x[0] reads h 34 ulps off 1/98; the grid match holds, so the
        # samples go onto the config's (T, h) and the step rule sees the h it was given
        monkeypatch.chdir(workdir)
        hermite_signal(0, 8.0, 1.0 / 98.0).to_csv("h98.csv")
        assert signal_from_csv("h98.csv").h != 1.0 / 98.0
        assert main(["analyze", "--h", repr(1.0 / 98.0), "--input", "h98.csv",
                     "--out-summary", "s.json"]) == 0
        assert json.loads(Path("s.json").read_text())["grid"]["h"] == 1.0 / 98.0

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_rotate_refuses_a_non_finite_angle(self, workdir, monkeypatch, capsys, angle):
        monkeypatch.chdir(workdir)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rotate", "--input", "h0.csv", f"--angle={angle}", "--out", "o.csv"]) == 2
        assert f"error: rotation angle must be finite, got {float(angle)!r}" in capsys.readouterr().err
        assert not Path("o.csv").exists()

    @pytest.mark.parametrize("angle", ["25653.06", "1e16", "-1e300"])
    def test_rotate_refuses_an_angle_past_the_reduction_bound(self, workdir, monkeypatch, capsys, angle):
        monkeypatch.chdir(workdir)
        assert main(["rotate", "--input", "h0.csv", f"--angle={angle}", "--out", "o.csv"]) == 2
        err = capsys.readouterr().err
        assert f"error: rotation angle {float(angle)!r} is beyond |angle| <= 25653.05" in err
        assert "within 1e-12 rad" in err
        assert not Path("o.csv").exists()

    @pytest.mark.parametrize("angle", ["25653.05", "-25000"])
    def test_rotate_takes_an_angle_within_the_reduction_bound(self, workdir, monkeypatch, angle):
        monkeypatch.chdir(workdir)
        assert main(["rotate", "--input", "h0.csv", f"--angle={angle}", "--out", "o.csv"]) == 0
        assert abs(signal_from_csv("o.csv").norm() - 1.0) < 1e-4

    def test_rotate_preserves_norm(self, workdir):
        rc = main(["rotate", "--input", str(workdir / "h0.csv"),
                   "--angle", str(np.pi / 4), "--out", str(workdir / "rot.csv")])
        assert rc == 0
        assert abs(signal_from_csv(workdir / "rot.csv").norm() - 1.0) < 1e-4


class TestConfigGrid:
    COMMAND_ARGS = {
        "analyze": ["--out-summary", "o.json"],
        "rotate": ["--angle", "0.5", "--out", "o.csv"],
        "expand": ["--out", "o.json"],
        "decompose": ["--domain", "disk.json", "--out", "o.json"],
    }

    @pytest.fixture()
    def h32(self, workdir, monkeypatch):
        monkeypatch.chdir(workdir)
        hermite_signal(0, 8.0, 1.0 / 32.0).to_csv("h32.csv")

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_csv_off_the_config_grid_rejected(self, h32, capsys, command):
        assert main([command, "--input", "h32.csv"] + self.COMMAND_ARGS[command]) == 2
        err = capsys.readouterr().err
        assert "h=0.03125" in err and "h=0.015625" in err
        assert not any(Path(".").glob("o.*"))

    @pytest.mark.parametrize("command", ["analyze", "rotate", "decompose", "expand", "verify"])
    def test_csv_on_the_config_grid_accepted(self, h32, command):
        # the Zak grid follows h to 1/(2h) = 16 on every command that builds one
        if command == "verify":
            # exit 1 is a check that misses its tolerance on the coarser grid, not a refusal (2)
            assert main(["verify", "--h", "0.03125", "--out", "o.json"]) in (0, 1)
        else:
            assert main([command, "--input", "h32.csv", "--h", "0.03125"] + self.COMMAND_ARGS[command]) == 0
        assert any(Path(".").glob("o.*"))
        if command != "rotate":
            payload = json.loads(Path("o.json").read_text())
            assert payload.get("diagnostics", payload)["config_hash"] == RunConfig(h=1 / 32).hash()


@pytest.mark.parametrize("command, extra", [
    ("expand", []),
    ("decompose", ["--domain", "disk.json", "--r", "3"]),
])
def test_unapplied_q_rejected(workdir, monkeypatch, capsys, command, extra):
    # the expansion always divides by the default theta series, so --Q would only change the hash
    monkeypatch.chdir(workdir)
    assert main([command, "--input", "e0.csv", "--Q", "4", "--out", "o.json"] + extra) == 2
    assert "does not take --Q 4" in capsys.readouterr().err
    assert not Path("o.json").exists()


# one non-default value per RunConfig field, and the two flags no command takes: the Zak grid N
# follows the step h, and the refined quadrature at the theta zero always runs
FIELD_FLAGS = {
    "T": ["--T", "10"],
    "h": ["--h", "0.03125"],
    "N": ["--N", "16"],
    "Q": ["--Q", "4"],
    "dlam": ["--dlam", "0.125"],
    "box": ["--box", "6"],
    "R": ["--R", "4"],
    "delta": ["--delta", "1.5"],
    "m": ["--m", "1"],
    "r": ["--r", "3"],
    "refine": ["--no-refine"],
    "decomp_dlam": ["--decomp-dlam", "0.25"],
    "margin": ["--margin", "3"],
    "seed": ["--seed", "5"],
}


def unread_cases(read):
    return [pytest.param(FIELD_FLAGS[name], id=name) for name in FIELD_FLAGS if name not in read]


def refusal(command, flags):
    """How the parser refuses a flag the command does not offer."""
    return f"error: {command} does not take {' '.join(flags)}"


@pytest.mark.parametrize("flags", unread_cases({"T", "h", "delta", "m", "r", "decomp_dlam"}))
def test_decompose_rejects_unapplied_fields(workdir, monkeypatch, capsys, flags):
    # decompose fixes its own cutoffs, margin, phase boxes, refinement and Zak grid,
    # so each of these would only change config_hash
    monkeypatch.chdir(workdir)
    args = ["decompose", "--input", "e0.csv", "--domain", "disk.json", "--r", "3", "--out", "o.json"]
    assert main(args + flags) == 2
    assert refusal("decompose", flags) in capsys.readouterr().err
    assert not Path("o.json").exists()


@pytest.mark.parametrize("flags", unread_cases({"T", "h", "dlam", "box", "delta"}))
def test_analyze_rejects_unapplied_fields(workdir, monkeypatch, capsys, flags):
    # analyze reads only the grid, the phase box and delta, so each of these would only change config_hash
    monkeypatch.chdir(workdir)
    assert main(["analyze", "--input", "h0.csv", "--out-summary", "o.json"] + flags) == 2
    assert refusal("analyze", flags) in capsys.readouterr().err
    assert not Path("o.json").exists()


@pytest.mark.parametrize("flags", unread_cases({"T", "h", "R", "delta", "m", "margin"}))
def test_expand_rejects_unapplied_fields(workdir, monkeypatch, capsys, flags):
    # the hdelta diagnostic runs on the signal's own phase box, so box and dlam would only change config_hash
    monkeypatch.chdir(workdir)
    assert main(["expand", "--input", "e0.csv", "--R", "3", "--out", "o.json"] + flags) == 2
    assert refusal("expand", flags) in capsys.readouterr().err
    assert not Path("o.json").exists()


@pytest.mark.parametrize("flags", [["--box", "2"], FIELD_FLAGS["dlam"]], ids=["box", "dlam"])
def test_expand_takes_no_phase_grid_off_delta_2(workdir, monkeypatch, capsys, flags):
    monkeypatch.chdir(workdir)
    assert main(["expand", "--input", "e0.csv", "--R", "3", "--delta", "1.5", "--out", "o.json"] + flags) == 2
    assert refusal("expand", flags) in capsys.readouterr().err
    assert not Path("o.json").exists()


@pytest.mark.parametrize("flags", unread_cases({"T", "h"}))
def test_rotate_rejects_unapplied_fields(workdir, monkeypatch, capsys, flags):
    # rotate reads only the grid of its input, so each of these would be silently dropped
    monkeypatch.chdir(workdir)
    assert main(["rotate", "--input", "h0.csv", "--angle", "0.5", "--out", "o.csv"] + flags) == 2
    assert refusal("rotate", flags) in capsys.readouterr().err
    assert not Path("o.csv").exists()


@pytest.mark.parametrize("flags", unread_cases({"Q"}))
def test_theta_rejects_unapplied_fields(capsys, flags):
    # theta(z) and I(x) take no grid; only the series truncation Q applies
    assert main(["theta", "--z", "0.5,0.5", "--x", "0.0"] + flags) == 2
    captured = capsys.readouterr()
    assert refusal("theta", flags) in captured.err
    assert captured.out == ""


def test_theta_applies_q(capsys):
    assert main(["theta", "--z", "0.3,0.2", "--Q", "2"]) == 0
    assert main(["theta", "--z", "0.3,0.2"]) == 0
    low_q, default_q = capsys.readouterr().out.splitlines()
    assert low_q != default_q


def coefficient(**fields) -> dict:
    return {"k": 0, "j": 0, "sharp": False, "re": 1.0, "im": 0.0, **fields}


@pytest.mark.parametrize("payload, message", [
    ({"coefficients": [coefficient(k=1.5)]}, "k and j must be integers"),
    ({"coefficients": [coefficient(j=True)]}, "k and j must be integers"),
    ({"coefficients": [coefficient(sharp="false")]}, "sharp a boolean"),
    ({"coefficients": [coefficient(), coefficient(re=2.0)]}, "given twice"),
    ({"coefficients": [coefficient()], "nodes": [[0.5, 0.5]]}, "one node per coefficient"),
    ({"coefficients": [coefficient(re=float("nan"))]}, "no pair of finite numbers"),
    ({"coefficients": [coefficient(im=float("inf"))]}, "no pair of finite numbers"),
    ({"coefficients": [coefficient(re="1.0")]}, "no pair of finite numbers"),
    ({"coefficients": [], "sharp_block": [[float("-inf"), 0.0]], "nodes": [[0.5, 0.5]]},
     "no pair of finite numbers"),
], ids=["fractional-k", "boolean-j", "string-sharp", "duplicate-key", "nodes-without-block",
        "nan-re", "infinite-im", "string-re", "infinite-block"])
def test_synthesize_refuses_coefficients_to_json_would_not_write(workdir, monkeypatch, capsys,
                                                                  payload, message):
    monkeypatch.chdir(workdir)
    Path("bad.json").write_text(json.dumps(payload))
    assert main(["synthesize", "--coeffs", "bad.json", "--out", "o.csv"]) == 2
    assert message in capsys.readouterr().err
    assert not Path("o.csv").exists()


@pytest.mark.parametrize("command, payload, message", [
    ("synthesize", [], "a coefficient set is a JSON object"),
    ("synthesize", None, "a coefficient set is a JSON object"),
    ("synthesize", {"coefficients": [1]}, "coefficient 1 is no JSON object"),
    ("synthesize", {"coefficients": {"k": 0}}, "a coefficient set is a JSON object"),
    ("synthesize", {"coefficients": [coefficient()], "sharp_block": [[1.0, 0.0]], "nodes": [1]},
     "nodes must be a list of [a, b] number pairs"),
    ("decompose", [], "a domain is a JSON object"),
    ("decompose", None, "a domain is a JSON object"),
    ("decompose", {"type": "disk", "center": 1, "radius": 1.5}, "disk center must be a list"),
    ("decompose", {"type": "union", "parts": 5}, "union parts must be a list"),
    ("decompose", {"type": "disk", "center": [0, 0], "radius": None}, "disk radius must be a finite number"),
    ("synthesize", {"coefficients": [coefficient()], "sharp_block": [[1.0, 0.0]], "nodes": [[float("nan"), 0.5]]},
     "nodes must be a finite number, got nan"),
    ("decompose", {"type": "disk", "center": [0, 0], "radius": float("nan")},
     "disk radius must be a finite number, got nan"),
], ids=["coeffs-list", "coeffs-null", "coefficient-number", "coefficients-object", "node-number",
        "domain-list", "domain-null", "center-number", "parts-number", "radius-null", "node-nan", "radius-nan"])
def test_malformed_json_input_exits_2(workdir, monkeypatch, capsys, command, payload, message):
    # a JSON input of the wrong shape or a non-finite number is a bad input (exit 2) that names
    # what is wrong, not an uncaught TypeError or a later, unrelated refusal
    monkeypatch.chdir(workdir)
    Path("bad.json").write_text(json.dumps(payload))
    args = {"synthesize": ["--coeffs", "bad.json"],
            "decompose": ["--input", "e0.csv", "--domain", "bad.json", "--r", "3"]}[command]
    assert main([command, *args, "--out", "o.out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not Path("o.out").exists()


@pytest.mark.parametrize("flags", unread_cases({"T", "h", "margin"}))
def test_synthesize_rejects_unapplied_fields(workdir, monkeypatch, capsys, flags):
    # synthesis reads the grid and the atom margin only
    monkeypatch.chdir(workdir)
    assert main(["synthesize", "--coeffs", "c.json", "--out", "o.csv"] + flags) == 2
    assert refusal("synthesize", flags) in capsys.readouterr().err
    assert not Path("o.csv").exists()


@pytest.mark.parametrize("flags", unread_cases({"T", "h", "Q", "dlam", "box", "delta", "m", "decomp_dlam", "seed"}))
def test_verify_rejects_unapplied_fields(workdir, monkeypatch, capsys, flags):
    # the invariant suite fixes its own cutoffs, certainty radius and atom margins
    monkeypatch.chdir(workdir)
    assert main(["verify", "--out", "o.json"] + flags) == 2
    captured = capsys.readouterr()
    assert refusal("verify", flags) in captured.err
    assert captured.out == ""
    assert not Path("o.json").exists()


def test_verify_rejects_an_order_its_certainty_check_cannot_run(workdir, monkeypatch, capsys):
    # the certainty block runs at r = 3, which fits orders up to 2; m = 3 is refused before any
    # check runs (the first ones evaluate the theta series)
    monkeypatch.chdir(workdir)
    calls = []

    def spy(*args):
        calls.append(args)
        return series(*args)

    series = numerics._theta_series
    monkeypatch.setattr(numerics, "_theta_series", spy)
    assert main(["verify", "--m", "3", "--out", "o.json"]) == 2
    assert "m=3" in capsys.readouterr().err
    assert not Path("o.json").exists()
    assert calls == []


@pytest.fixture()
def off_grids(workdir, monkeypatch):
    """Signal CSVs on grids where some call refuses to run: T = 7.5, h = 1/66 (N = 33) and an h that
    misses 1/98 by 4e-15 of itself."""
    monkeypatch.chdir(workdir)
    hermite_signal(0, 7.5, 1 / 64).to_csv("h75.csv")
    hermite_signal(0, 8.0, 1 / 66).to_csv("h66.csv")
    hermite_signal(0, 8.0, 0.0102040816326531).to_csv("h98.csv")


decomposing = ["decompose", "--input", "e0.csv", "--domain", "disk.json", "--out", "o.json"]


@pytest.mark.parametrize("argv, shown", [
    (["verify", "--T", "0", "--out", "o.json"], "atom center p=0.0 too close to the boundary T=0.0"),
    (["verify", "--h", "0.03", "--out", "o.json"], "grid requires 2T/h integral, got T=8.0, h=0.03"),
    (["expand", "--input", "h75.csv", "--T", "7.5", "--out", "o.json"], "sharp functional needs half-integer"),
    (["expand", "--input", "h66.csv", "--h", repr(1 / 66), "--out", "o.json"],
     f"grid step h={1 / 66!r} has no even Zak midpoint grid"),
    (["verify", "--Q", "0", "--out", "o.json"], "theta truncation needs terms >= 1"),
    (["theta", "--z", "0.5,0.5", "--Q", "0"], "theta truncation needs terms >= 1"),
    (["analyze", "--input", "h0.csv", "--dlam", "0", "--out-summary", "o.json"], "phase step dlam=0.0 must be positive"),
    (decomposing + ["--r", "3", "--decomp-dlam", "0"], "phase step dlam=0.0 must be positive"),
    (["verify", "--dlam", "0.123456789", "--out", "o.json"], "phase step dlam=0.123456789 at h=0.015625"),
    (["verify", "--decomp-dlam", "0.123456789", "--out", "o.json"], "phase step dlam=0.123456789 at h=0.015625"),
    (["analyze", "--input", "h98.csv", "--h", "0.0102040816326531", "--out-summary", "o.json"],
     "sample step h=0.0102040816326531 is no 1/H"),
    (["analyze", "--input", "h0.csv", "--box", "9", "--out-summary", "o.json"],
     "phase box reaches p=9.0, beyond the grid T=8.0"),
    (["analyze", "--input", "h0.csv", "--box", "0", "--out-summary", "o.json"],
     "config: phase box must be positive, got box=0.0"),
    (["expand", "--input", "h0.csv", "--R", "-1", "--out", "o.json"], "cutoff must be >= 0"),
    (["analyze", "--input", "h0.csv", "--delta", "-1", "--out-field", "f.csv"], "smoothness order must be >= 0"),
    (decomposing + ["--r", "3", "--m", "7"], "order m=7 must be in 0..6"),
    (decomposing + ["--r", "0"], "collar width r must be positive"),
    (["expand", "--input", "h0.csv", "--margin", "-1", "--out", "o.json"], "atom margin must be >= 0"),
], ids=["T_0", "h_off_2T", "T_fraction", "zak_grid_odd", "Q_0", "theta_Q_0", "dlam_0", "decomp_dlam_0",
        "verify_dlam", "verify_decomp_dlam", "h_off_1_over_H", "box_9", "box_0", "R_negative",
        "delta_negative", "m_7", "r_0", "margin_negative"])
def test_a_range_rule_is_refused_by_the_call_that_applies_it(off_grids, capsys, argv, shown):
    # the config holds types and finiteness, and a box > 0 where one is read; every other rule is the
    # library's: the call that applies the field refuses it, with exit 2, before anything is printed
    # or written (a field CSV too, which analyze writes only after its summary is computed)
    before = set(Path(".").iterdir())
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {shown}" in captured.err
    assert captured.out == ""
    assert set(Path(".").iterdir()) == before


@pytest.mark.parametrize("command, T", [("analyze", 7.5), ("rotate", 7.5), ("analyze", 6.0)])
def test_a_command_runs_on_every_grid_its_calls_take(workdir, monkeypatch, command, T):
    # only the Zak and sharp sums need an integer T, and the field's default box is the signal's own,
    # min(T, 8), so the transform and the rotation run at T = 7.5 and the transform at T = 6
    monkeypatch.chdir(workdir)
    hermite_signal(2, T, 1 / 64).to_csv("h.csv")
    f = numerics.SampledSignal(T, 1 / 64, signal_from_csv("h.csv").values)
    if command == "analyze":
        assert main(["analyze", "--T", str(T), "--input", "h.csv", "--out-field", "o.csv",
                     "--out-summary", "s.json"]) == 0
        gabor_transform(f).to_csv("want.csv")
        assert json.loads(Path("s.json").read_text())["config_hash"] == RunConfig(T=T, box=T).hash()
    else:
        assert main(["rotate", "--T", str(T), "--input", "h.csv", "--angle", "0.5", "--out", "o.csv"]) == 0
        metaplectic_apply(Rotation(0.5), f).to_csv("want.csv")
    assert Path("o.csv").read_bytes() == Path("want.csv").read_bytes()


def test_decompose_runs_the_proofs_order_by_default(workdir, monkeypatch):
    # without --m, decompose runs certainty.default_order(r), the order certainty.decompose takes
    # itself: m = 1 at r = 6, and config_hash names it
    monkeypatch.chdir(workdir)
    atom((0.3, 0.2), 12.0, 1 / 64).to_csv("a12.csv")
    Path("small.json").write_text(json.dumps({"type": "disk", "center": [0, 0], "radius": 0.5}))
    assert main(["decompose", "--T", "12", "--r", "6", "--input", "a12.csv", "--domain", "small.json",
                 "--out", "o.json"]) == 0
    payload = json.loads(Path("o.json").read_text())
    f = numerics.SampledSignal(12.0, 1 / 64, signal_from_csv("a12.csv").values)
    assert payload["report"]["m"] == certainty.default_order(6.0) == 1
    assert payload["report"] == certainty.decompose(f, Disk((0, 0), 0.5), 6.0).report
    assert payload["config_hash"] == RunConfig(T=12.0, r=6.0, m=1).hash()


@pytest.mark.parametrize("text, shown", [
    ('[["T", 8.0]]', "cfg.json: a config file holds one JSON object"),
    ("[1, 2]", "cfg.json: a config file holds one JSON object"),
    ('{"T": "8"}', "T must be a number, got '8'"),
    ('{"delta": null}', "delta must be a number, got None"),
    ('{"R": 6.5}', "R must be an integer, got 6.5"),
    ('{"m": true}', "m must be an integer, got True"),
    ('{"delta": NaN}', "delta must be finite, got nan"),
    ('{"T": Infinity}', "T must be finite, got inf"),
    ('{"T": 1' + "0" * 400 + "}", "T must be finite, got 1000"),
], ids=["pairs", "list", "string", "null", "fraction", "bool", "nan", "inf", "past_the_float_range"])
def test_config_values_are_typed_and_finite(workdir, monkeypatch, capsys, text, shown):
    monkeypatch.chdir(workdir)
    Path("cfg.json").write_text(text)
    assert main(["expand", "--input", "e0.csv", "--config", "cfg.json", "--out", "o.json"]) == 2
    assert shown in capsys.readouterr().err
    assert not Path("o.json").exists()


@pytest.mark.parametrize("command, flags", [
    ("expand", ["--input", "e0.csv", "--T", "inf", "--out", "o.json"]),
    ("expand", ["--input", "e0.csv", "--margin", "nan", "--out", "o.json"]),
    ("analyze", ["--input", "h0.csv", "--delta", "nan", "--out-summary", "o.json"]),
    ("analyze", ["--input", "h0.csv", "--dlam", "inf", "--out-summary", "o.json"]),
    ("analyze", ["--input", "h0.csv", "--box", "nan", "--out-summary", "o.json"]),
], ids=["T_inf", "margin_nan", "delta_nan", "dlam_inf", "box_nan"])
def test_non_finite_flags_are_refused(workdir, monkeypatch, capsys, command, flags):
    monkeypatch.chdir(workdir)
    assert main([command] + flags) == 2
    name = flags[2].removeprefix("--")
    assert f"config: {name} must be finite" in capsys.readouterr().err
    assert not Path("o.json").exists()


@pytest.mark.parametrize("argv", [
    ["theta", "--h", "0.03125", "--z", "0,0"],
    ["analyze", "--input", "h0.csv", "--out-sum", "o.json"],
    ["decompose", "--input", "e0.csv", "--domain", "disk.json", "--decomp", "0.25", "--out", "o.json"],
], ids=["help", "out_summary", "decomp_dlam"])
def test_flags_are_not_abbreviated(workdir, monkeypatch, capsys, argv):
    # --h would otherwise prefix-match --help and exit 0 on a command that does not take --h
    monkeypatch.chdir(workdir)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "does not take" in captured.err
    assert captured.out == ""
    assert not Path("o.json").exists()


@pytest.mark.parametrize("command, args", [
    ("analyze", ["--input", "h0.csv", "--out-summary", "o.json"]),
    ("expand", ["--input", "e0.csv", "--out", "o.json"]),
    ("decompose", ["--input", "e0.csv", "--domain", "disk.json", "--out", "o.json"]),
])
def test_a_shared_config_file_at_the_run_values_is_accepted(workdir, monkeypatch, command, args):
    # one file may serve every command: it names all fields, each at the value the command runs with
    monkeypatch.chdir(workdir)
    Path("all.json").write_text(json.dumps(asdict(RunConfig())))
    assert main([command, "--config", "all.json"] + args) == 0
    payload = json.loads(Path("o.json").read_text())
    assert payload.get("diagnostics", payload)["config_hash"] == RunConfig().hash()


@pytest.mark.parametrize("config, shown", [
    ({"R": 4}, "R=4"),
    ({"seed": 5}, "seed=5"),
    ({"h": 0.03125, "N": 32}, "unknown fields ['N']"),
], ids=["R", "seed", "N_off_the_zak_grid"])
def test_a_config_file_key_the_command_does_not_apply_is_rejected(workdir, monkeypatch, capsys, config, shown):
    # analyze takes neither R nor seed; N is no field, as every Zak grid follows h
    monkeypatch.chdir(workdir)
    Path("cfg.json").write_text(json.dumps(config))
    assert main(["analyze", "--input", "h0.csv", "--config", "cfg.json", "--out-summary", "o.json"]) == 2
    assert shown in capsys.readouterr().err
    assert not Path("o.json").exists()


@pytest.mark.parametrize("command, args", [
    ("expand", ["--input", "h0t6.csv", "--R", "1", "--margin", "1", "--out", "o.json"]),
    ("decompose", ["--input", "h0t6.csv", "--domain", "small.json", "--r", "3", "--m", "0", "--out", "o.json"]),
    ("rotate", ["--input", "h0t6.csv", "--angle", "0.5", "--out", "o.json"]),
    ("synthesize", ["--coeffs", "c.json", "--margin", "1", "--out", "o.json"]),
], ids=["expand", "decompose", "rotate", "synthesize"])
def test_a_command_that_reads_no_box_runs_below_t_8(workdir, monkeypatch, command, args):
    # a command that reads no box runs below T = 8 at its defaults (one that reads it takes min(T, 8))
    monkeypatch.chdir(workdir)
    hermite_signal(0, 6.0, 1 / 64).to_csv("h0t6.csv")
    Path("small.json").write_text(json.dumps({"type": "disk", "center": [0, 0], "radius": 0.5}))
    assert main([command, "--T", "6"] + args) == 0
    assert Path("o.json").exists()


@pytest.mark.parametrize("T", [8.0, 6.0])
def test_expand_hdelta_is_the_signals_own_norm(workdir, monkeypatch, T):
    # off delta = 2 the diagnostic reads the Gabor grid of the signal's own box, as hdelta_norm's default
    monkeypatch.chdir(workdir)
    f = hermite_signal(2, T, 1 / 64)
    f.to_csv("h2.csv")
    assert main(["expand", "--input", "h2.csv", "--T", str(T), "--R", "1", "--delta", "1.5", "--margin", "1",
                 "--out", "o.json"]) == 0
    assert json.loads(Path("o.json").read_text())["diagnostics"]["hdelta"] == expansion.hdelta_norm(f, 1.5)


def test_analyze_hdelta_is_the_signals_own_norm(workdir, monkeypatch):
    # --box and --dlam set the field and parseval_ratio; the summary's hdelta_norm stays the signal's own
    monkeypatch.chdir(workdir)
    assert main(["analyze", "--input", "h0.csv", "--delta", "1.5", "--box", "1", "--dlam", "0.125",
                 "--out-summary", "o.json"]) == 0
    summary = json.loads(Path("o.json").read_text())
    assert summary["hdelta_norm"] == expansion.hdelta_norm(hermite_signal(0), 1.5)
    assert summary["parseval_ratio"] < 0.99  # the box 1 holds only part of the mass


class TestConfigFlags:
    @staticmethod
    def _subparsers():
        action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_one_flag_per_config_field(self):
        # each command offers --config plus one flag per field it applies, and nothing for the rest
        names = {f.name for f in fields(RunConfig)}
        subs = self._subparsers()
        assert set(subs) == set(READS) == {"analyze", "synthesize", "expand", "decompose", "rotate", "theta",
                                           "verify"}
        for command, sub in subs.items():
            config_actions = [a for a in sub._actions if a.dest in names | {"config"}]
            assert sorted(a.dest for a in config_actions) == sorted(set(READS[command]) | {"config"})
            flags = {opt for a in config_actions for opt in a.option_strings}
            assert flags == {"--config"} | {"--" + name.replace("_", "-") for name in READS[command]}

    def test_reads_cover_every_config_field(self):
        # every RunConfig field is applied by some command, so none is a flag no command offers
        assert set().union(*READS.values()) == {f.name for f in fields(RunConfig)}

    def test_flag_types_follow_the_defaults(self):
        args = build_parser().parse_args(["verify", "--Q", "4", "--T", "8"])
        assert args.Q == 4 and type(args.Q) is int
        assert args.T == 8.0 and type(args.T) is float
        assert args.decomp_dlam is None and args.seed is None


def test_readme_cli_table_matches_reads():
    # README's CLI section lists each command's config flags; parse the table back into fields
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", readme, flags=re.M)
    table = {command: tuple(flag.removeprefix("--").replace("-", "_")
                            for flag in flags.split())
             for command, flags in rows}
    assert table == READS


class TestTheta:
    def test_prints_values(self, capsys):
        assert main(["theta", "--z", "0,0", "--x", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "1.2919960074815042" in out
        assert "0.5" in out

    def test_q_without_z_is_refused(self, capsys):
        # Q truncates the theta series only; I(x) would run and ignore it
        assert main(["theta", "--x", "0.0", "--Q", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: Q=4 truncates theta(z) only" in captured.err
        assert main(["theta", "--x", "0.0", "--Q", "8"]) == 0  # the default truncation

    def test_nothing_to_do(self, capsys):
        assert main(["theta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: nothing to evaluate" in captured.err

    @pytest.mark.parametrize("args, shown", [
        (["--z", "nan,0"], "--z nan,0: the argument and theta there must be finite"),
        (["--z", "inf,0"], "--z inf,0: the argument and theta there must be finite"),
        (["--z", "0,-inf"], "--z 0,-inf: the argument and theta there must be finite"),
        (["--z", "0,20"], "--z 0,20: the argument and theta there must be finite"),
        (["--x", "nan"], "--x must be finite, got nan"),
        (["--x", "inf"], "--x must be finite, got inf"),
        (["--z", "0,0", "--x", "nan"], "--x must be finite, got nan"),
    ], ids=["z_nan", "z_inf", "z_minus_inf", "z_overflow", "x_nan", "x_inf", "x_nan_after_z"])
    def test_non_finite_argument_or_value_refused(self, capsys, args, shown):
        # theta(0 + 20i) overflows to inf + nan i; nothing is printed but the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["theta"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {shown}" in captured.err


class TestStrictJson:
    # JSON has no nan or infinity: a payload holding one is refused, naming its key, and no file is written.
    # The smoothness norm stands in for a value that went nan: at delta = 3 it returns nan here, since
    # a delta at which it would overflow is refused before any work (TestOverflowingDelta)
    @pytest.mark.parametrize("args, key", [
        (["analyze", "--input", "h0.csv", "--delta", "3", "--out-summary", "o.json"], "hdelta_norm"),
        (["expand", "--input", "h0.csv", "--delta", "3", "--R", "3", "--out", "o.json"], "diagnostics.hdelta"),
        (["decompose", "--input", "e0.csv", "--domain", "disk.json", "--delta", "3", "--m", "0",
          "--out", "o.json"], "report.bound_value"),
        (["verify", "--delta", "3", "--out", "o.json"], "checks.32.measured"),
    ])
    def test_nan_refused_naming_its_key(self, workdir, monkeypatch, capsys, args, key):
        monkeypatch.chdir(workdir)
        norm = expansion.hdelta_norm

        def nan_off_two(f, delta, *rest, **kwargs):
            return float("nan") if delta != 2 else norm(f, delta, *rest, **kwargs)

        for module in (expansion, certainty):
            monkeypatch.setattr(module, "hdelta_norm", nan_off_two)
        assert main(args) == 2
        assert f"error: {key} is nan, which JSON cannot hold" in capsys.readouterr().err
        assert not Path("o.json").exists()

    def test_nested_keys_and_lists_are_named(self):
        with pytest.raises(ValueError, match=r"^a\.1\.b is inf, which JSON cannot hold$"):
            _dump_json({"a": [0.0, {"b": float("inf")}]})


class TestOverflowingDelta:
    # |lambda|^delta on the phase box 8 passes the float range past delta ~ 292: refused, naming delta,
    # without a numpy warning and, in decompose, before its expansion, where a nan once reached the output
    @pytest.mark.parametrize("args", [
        ["analyze", "--input", "h0.csv", "--delta", "1000", "--out-summary", "o.json"],
        ["expand", "--input", "h0.csv", "--delta", "1000", "--R", "3", "--out", "o.json"],
        ["decompose", "--input", "e0.csv", "--domain", "disk.json", "--delta", "400", "--m", "0", "--out", "o.json"],
        ["verify", "--delta", "400", "--out", "o.json"],
    ], ids=["analyze", "expand", "decompose", "verify"])
    def test_refused_before_any_work(self, workdir, monkeypatch, capsys, args):
        monkeypatch.chdir(workdir)

        def no_work(*rest, **kwargs):
            raise AssertionError("an overflowing delta reached the expansion")

        monkeypatch.setattr(certainty, "relaxed_coefficients", no_work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        delta = args[args.index("--delta") + 1]
        assert f"error: smoothness order delta={float(delta)!r} on the phase box 8.0" in capsys.readouterr().err
        assert not Path("o.json").exists()


class TestVerify:
    def test_seeded_run_passes_and_is_deterministic(self, workdir, capsys):
        out1, out2 = workdir / "r1.json", workdir / "r2.json"
        assert main(["verify", "--seed", "7", "--out", str(out1)]) == 0
        assert main(["verify", "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = capsys.readouterr().out
        assert "FAIL" not in text

    def test_seed7_matches_golden(self, workdir):
        # tests/data/verify_seed7.json holds every measured value of `verify --seed 7`;
        # a refactor may move them by roundoff only
        golden = json.loads((Path(__file__).parent / "data" / "verify_seed7.json").read_text())["measured"]
        assert main(["verify", "--seed", "7", "--out", str(workdir / "g.json")]) == 0
        checks = json.loads((workdir / "g.json").read_text())["checks"]
        measured = {c["name"]: c["measured"] for c in checks}
        assert measured.keys() == golden.keys()
        moved = {name: (measured[name], g) for name, g in golden.items()
                 if abs(measured[name] - g) > 1e-12 * abs(g) + 1e-14}
        assert not moved

    def test_uniqueness_floor_is_the_closed_form_gram_floor(self, workdir):
        # the check reads sqrt(lambda_min) of the sampled Gram of the 5x5 lattice block and the
        # sharp atom, which is the floor itself, not a minimum over random vectors
        assert main(["verify", "--seed", "7", "--out", str(workdir / "u.json")]) == 0
        checks = json.loads((workdir / "u.json").read_text())["checks"]
        measured = next(c["measured"] for c in checks if c["name"] == "uniqueness_floor")
        pts = [(k, j) for k in range(-2, 3) for j in range(-2, 3)] + [sharp_point()]
        gram = np.array([[atom_inner(a, b) for b in pts] for a in pts])
        assert measured == pytest.approx(np.sqrt(np.linalg.eigvalsh(gram)[0]), abs=1e-12)

    def test_seeded_run_below_t_8_takes_the_signals_own_box(self, workdir):
        assert main(["verify", "--T", "7", "--seed", "7", "--out", str(workdir / "t7.json")]) == 0
        report = json.loads((workdir / "t7.json").read_text())
        assert report["config"]["box"] == 7.0
        assert len(report["checks"]) == 33 and report["all_passed"]

    @pytest.mark.parametrize("Q", [8, 4, 1])
    def test_theta_zero_count_counts_the_zeros_inside(self, Q):
        # the winding number behind theta_zeros_per_cell: two cells hold two zeros, a square
        # off the zero holds none
        assert verify._zeros_in(0.0, 1.0, 0.0, 1.0, Q) == pytest.approx(1.0, abs=1e-12)
        assert verify._zeros_in(0.0, 2.0, 0.0, 1.0, Q) == pytest.approx(2.0, abs=1e-12)
        assert abs(verify._zeros_in(0.1, 0.4, 0.1, 0.4, Q)) < 1e-12

    def test_tiny_q_fails_theta_check(self, workdir, capsys):
        rc = main(["verify", "--Q", "2", "--out", str(workdir / "rq.json")])
        assert rc == 1
        report = json.loads((workdir / "rq.json").read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "theta_vertical_periodicity" in failed


class TestRuntimeDependencies:
    """numpy is the only runtime dependency; scipy serves the tests alone."""

    @staticmethod
    def _child(code):
        env = dict(os.environ)
        src = str(Path(criticalgabor.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)

    def test_cli_import_leaves_scipy_out(self):
        res = self._child("import sys, criticalgabor.cli; print('scipy' in sys.modules)")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_verify_runs_without_scipy(self, tmp_path):
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from criticalgabor.cli import main\n"
                f"sys.exit(main(['verify', '--seed', '7', '--out', {str(tmp_path / 'v.json')!r}]))")
        res = self._child(code)
        assert res.returncode == 0, res.stderr
        assert json.loads((tmp_path / "v.json").read_text())["checks"]
