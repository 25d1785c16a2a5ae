import csv
import json
from pathlib import Path

import pytest

from pivotal import cli
from pivotal.cli import CSV_HEADER, ConfigError, load_config, run, write_reports
from pivotal.point_process import DeclarationError
from pivotal.quadrature import QuadratureError
from pivotal.stable import EnvelopeError
from pivotal.suites import CheckResult, parse_density, parse_shape


def write_cfg(tmp_path: Path, payload: dict) -> Path:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    return p


BASE = {"seed": 4242, "reps": 500, "suites": ["identities"]}
DISK = {"kind": "disk", "center": [0, 0], "radius": 1.0}


class TestConfig:
    def test_seed_required(self, tmp_path):
        cfg = write_cfg(tmp_path, {"suites": ["identities"]})
        assert run(cfg, tmp_path / "out") == 2

    def test_empty_suites_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {"seed": 1, "suites": []})
        assert run(cfg, tmp_path / "out") == 2

    def test_zero_reps_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"seed": 1, "reps": 0, "suites": ["identities"]})
        assert run(cfg, tmp_path / "out") == 2

    def test_unknown_suite_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"seed": 1, "suites": ["nope"]})
        assert run(cfg, tmp_path / "out") == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert run(p, tmp_path / "out") == 2

    def test_all_expands(self, tmp_path):
        cfg = write_cfg(tmp_path, {"seed": 1, "suites": ["all"]})
        _, names = load_config(cfg)
        assert set(names) == {"identities", "russo", "poisson-derivative", "stable", "crofton"}

    def test_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        parsed, names = load_config(cfg, seed_override=7, suites_override=["russo"])
        assert parsed.seed == 7
        assert names == ["russo"]

    def test_tolerance_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE, tolerances={"identity": 1e-8, "z": 5.0}))
        parsed, _ = load_config(cfg)
        tolerances = parsed.suite_options("tolerances")
        assert tolerances["identity"] == 1e-8
        assert tolerances["z"] == 5.0
        assert tolerances["ks_p"] == 0.01  # the default
        bad = write_cfg(tmp_path, dict(BASE, tolerances={"wat": 1.0}))
        with pytest.raises(ConfigError):
            load_config(bad)


class TestConfigValidation:
    @pytest.mark.parametrize("payload", [
        dict(BASE, russo={"event": 5}),  # misspelt key
        dict(BASE, russo={"events": 0}),
        dict(BASE, russo={"events": 2.5}),
        dict(BASE, russo={"max_bits": 30}),
        dict(BASE, russo={"thetas": [0.5, 1.5]}),
        dict(BASE, stable={"radvec_reps": 50}),
        dict(BASE, crofton={"shape": {"kind": "torus"}}),
        dict(BASE, crofton={"shape": {"kind": "disk", "center": [0, 0]}}),
        dict(BASE, crofton={"shape": {"kind": "disk", "center": [0, 0, 0], "radius": 1.0}}),
        dict(BASE, crofton={"h": "affine:1,2"}),
        dict(BASE, crofton={"shape": DISK, "h": "const:0"}),
        dict(BASE, crofton={"shape": DISK, "h": "const:nan"}),
        dict(BASE, crofton={"shape": DISK, "h": "affine:1,inf,0"}),
        dict(BASE, crofton={"shape": DISK, "h": "affine:-1,0,0"}),  # zero everywhere
        # positive only near the corners of the padded bounding box, outside
        # every disk the binomial check samples
        dict(BASE, crofton={"shape": DISK, "h": "affine:-2.9,1,1", "t": 0.5}),
        dict(BASE, crofton={"t": -0.1}),
        dict(BASE, crofon={"reps": 10}),  # unknown block
        dict(BASE, russo=[8]),
        dict(BASE, tolerances={"z": "four"}),
        dict(BASE, reps=1),
        # JSON's 1e999 parses to inf
        dict(BASE, tolerances={"z": 1e999}),
        dict(BASE, crofton={"t": 1e999}),
        # finite, but K_t has no finite mass
        dict(BASE, crofton={"shape": DISK, "t": 1e300}),
        dict(BASE, crofton={"shape": {"kind": "disk", "center": [0, 0], "radius": 1e200}}),
        dict(BASE, seed=True),
        dict(BASE, suites=["all", "nope"]),
        # used only with a shape
        dict(BASE, crofton={"t": 0.3}),
        dict(BASE, crofton={"m": 4}),
        dict(BASE, crofton={"reps": 20, "h": "const:1"}),
    ])
    def test_rejected(self, tmp_path, payload):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, payload))

    def test_every_key_accepted(self, tmp_path):
        cfg, _ = load_config(write_cfg(tmp_path, dict(
            BASE, identities={}, russo={"events": 3, "max_bits": 6, "thetas": [0.2, 0.8]},
            **{"poisson-derivative": {"reps": 100}}, stable={"samples": 50, "radvec_reps": 100},
            crofton={"reps": 20, "shape": {"kind": "box", "lo": [0, 0], "hi": [1, 1]},
                     "h": "affine:1,0.5,0", "t": 0.3, "m": 4})))
        assert cfg.suite_options("crofton")["m"] == 4

    def test_infinite_value_is_exit_2_before_any_suite(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1, "reps": 300, "suites": ["identities", "crofton"], '
                       '"crofton": {"shape": {"kind": "disk", "center": [0, 0], "radius": 1}, "t": 1e999}}')
        assert run(cfg, tmp_path / "out", verbose=False) == 2
        assert capsys.readouterr().err == "config error: crofton.t must be a finite nonnegative number\n"
        assert not (tmp_path / "out").exists()

    def test_value_error_in_suite_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise ValueError("not a config problem")

        monkeypatch.setitem(cli.SUITES, "russo", broken)
        cfg = write_cfg(tmp_path, {"seed": 1, "reps": 300, "suites": ["russo"]})
        with pytest.raises(ValueError, match="not a config problem"):
            run(cfg, tmp_path / "out", verbose=False)


class TestShapeParsing:
    def test_all_kinds(self):
        parse_shape({"kind": "disk", "center": [0, 0], "radius": 1.0})
        parse_shape({"kind": "box", "lo": [0, 0], "hi": [1, 2]})
        parse_shape({"kind": "polygon", "vertices": [[0, 0], [1, 0], [0.5, 1]]})
        parse_shape({"kind": "segment", "a": [0, 0], "b": [1, 0]})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_shape({"kind": "torus"})

    def test_density_specs(self):
        h, sup = parse_density("const:2.5")
        import numpy as np
        assert sup == 2.5
        assert h(np.zeros((3, 2))).tolist() == [2.5, 2.5, 2.5]
        h, sup = parse_density("affine:1,0.5,0")
        assert sup is None
        assert h(np.array([[2.0, 9.0]]))[0] == 2.0
        with pytest.raises(ValueError):
            parse_density("cubic:1")


class TestRunner:
    def test_identities_run(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        rows = list(csv.reader((out / "results.csv").open()))
        assert rows[0] == CSV_HEADER
        assert len(rows) - 1 >= 12
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == []
        assert summary["checks"] == len(rows) - 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, {"seed": 99, "reps": 400, "suites": ["identities", "russo"],
                                   "russo": {"events": 5, "max_bits": 6}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(cfg, out1) == 0
        assert run(cfg, out2) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_rewrite_replaces_earlier_reports(self, tmp_path):
        rows = [CheckResult("s", f"c{i}", {"i": i}, 1.0, 1.0, 0.0, 0.0, 0.0, 1e-10, i != 1)
                for i in range(3)]
        write_reports(rows, tmp_path)
        first = (tmp_path / "results.csv").read_bytes()
        write_reports(rows, tmp_path)
        assert (tmp_path / "results.csv").read_bytes() == first
        written = list(csv.reader((tmp_path / "results.csv").open()))
        assert written[0] == CSV_HEADER and len(written) == 1 + len(rows)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"] == len(written) - 1
        assert summary["passed"] == sum(r[-1] == "true" for r in written[1:])
        assert summary["failures"] == ["c1"]

    def test_every_tolerance_reaches_its_rows(self, tmp_path):
        # values no check uses as a fixed bound, so a row carries one exactly
        # when its threshold is that tolerance
        tolerances = {"identity": 3e-9, "relative": 3e-11, "ode": 3e-4, "quadrature": 3e-5,
                      "stable_quadrature": 3e-2, "golden_gap": 0.3, "z": 30, "ks_p": 3e-3}
        uses = {
            "identity": {("identities", c) for c in (
                "binomial_tail_vs_beta_integral", "negbin_binomial_tail_vs_integral",
                "negbin_sum_below_k_vs_integral", "negbin_sum_through_k_exceeds_integral",
                "poisson_tail_vs_integral", "erlang_three_way")}
            | {("russo", "derivative_matches_polynomial_monotone_dnf"),
               ("russo", "derivative_matches_polynomial_arbitrary")},
            "relative": {("identities", "cpois_direct_vs_panjer"), ("identities", "cpois_polyrec_vs_panjer")},
            "ode": {("identities", "cpois_cdf_rate_equation")},
            "quadrature": {("stable", "levy_measure_homogeneity")},
            "stable_quadrature": {("stable", "cdf_identity_quadrature"), ("stable", "density_identity_quadrature")},
            "golden_gap": {("stable", "golden_cdf_vs_erfc")},
            "z": {("poisson-derivative", c) for c in (
                "location_count", "location_void", "location_hit", "pivotal_points_vs_locations",
                "erlang_arrival_derivative", "second_derivative_count_squared")}
            | {("stable", c) for c in (
                "radius_density_identity_positive_half", "radius_density_identity_symmetric_1d",
                "radius_density_identity_axis_2d", "cdf_identity_monte_carlo")}
            | {("crofton", c) for c in (
                "poisson_count_disk", "poisson_count_segment_t0", "binomial_count_disk",
                "poisson_count_configured_shape", "binomial_count_configured_shape")},
            "ks_p": {("stable", "scaling_ks"), ("stable", "strict_stability_ks")},
        }
        cfg = write_cfg(tmp_path, {
            "seed": 3, "reps": 200, "suites": ["all"], "tolerances": tolerances,
            "russo": {"events": 3, "max_bits": 6}, "stable": {"samples": 50, "radvec_reps": 100},
            "crofton": {"reps": 800, "shape": DISK, "m": 3}})
        assert run(cfg, tmp_path / "out", verbose=False) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "results.csv").open()))
        for key, value in tolerances.items():
            carriers = {(r["suite"], r["check_id"]) for r in rows if float(r["threshold"]) == value}
            assert carriers == uses[key], key
            assert all(float(r["threshold"]) == value for r in rows if (r["suite"], r["check_id"]) in uses[key])

    @pytest.mark.parametrize("reps", [20, 50])
    def test_segment_difference_sees_its_shell_at_few_reps(self, tmp_path, reps):
        # with no floor on its replicates, no replicate held a point next to the
        # segment, so the row read lhs 0 +/- 0 and z = inf
        cfg = write_cfg(tmp_path, {"seed": 3, "suites": ["crofton"], "crofton": {"reps": reps}})
        run(cfg, tmp_path / "out", verbose=False)
        rows = csv.DictReader((tmp_path / "out" / "results.csv").open())
        row, = (r for r in rows if r["check_id"] == "poisson_count_segment_t0")
        assert row["pass"] == "true" and float(row["lhs_stderr"]) > 0

    def test_affine_density_envelope_covers_sampled_radii(self, tmp_path):
        # the checks sample the box at radius max(t, 0.2) + delta, where the
        # affine density exceeds its maximum over the box padded by t alone;
        # the sampler raises if the envelope is computed on the smaller box
        cfg = write_cfg(tmp_path, {"seed": 5, "reps": 40, "suites": ["crofton"], "crofton": {
            "reps": 40, "shape": {"kind": "box", "lo": [0, 0], "hi": [1, 1]},
            "h": "affine:1,0.5,0.3", "t": 0.1, "m": 3}})
        assert run(cfg, tmp_path / "out", verbose=False) in (0, 1)

    def test_malformed_shape_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {"seed": 1, "reps": 300, "suites": ["crofton"],
                                   "crofton": {"reps": 200, "shape": {"kind": "torus"}}})
        assert run(cfg, tmp_path / "out") == 2

    def test_main_usage_error(self):
        from pivotal.cli import main
        assert main(["--config"]) == 2

    def test_main_help_lists_exit_codes(self, capsys):
        from pivotal.cli import main
        assert main(["--help"]) == 0
        assert "3  a check could not be computed" in capsys.readouterr().out

    @pytest.mark.parametrize("error", [DeclarationError, EnvelopeError, QuadratureError])
    def test_check_error_in_suite_is_exit_3(self, tmp_path, monkeypatch, capsys, error):
        def broken(cfg):
            raise error("declared bound 1.0 violated: 5.0")

        monkeypatch.setitem(cli.SUITES, "russo", broken)
        cfg = write_cfg(tmp_path, {"seed": 1, "reps": 300, "suites": ["identities", "russo"]})
        assert run(cfg, tmp_path / "out", verbose=False) == 3
        err = capsys.readouterr().err
        assert err == "check error in suite russo: declared bound 1.0 violated: 5.0\n"
        assert not (tmp_path / "out" / "results.csv").exists()

