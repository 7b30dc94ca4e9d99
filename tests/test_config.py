"""Unit tests for the key = value run configuration."""

from dataclasses import fields

import numpy as np
import pytest

from invdiff import (
    RunConfig,
    default_config,
    parse_config,
    parse_config_text,
)


class TestDefaults:
    def test_core_defaults(self):
        cfg = default_config()
        assert cfg.kappa_a == 2e-7
        assert cfg.kappa_d == 0.0
        assert cfg.diffusion == 1e-10
        assert cfg.horizon == 3600.0
        assert cfg.pixel_pitch == 1e-5
        assert cfg.shape == (128, 128)
        assert cfg.lam == 1e-3
        assert cfg.seed == 12345
        assert cfg.bits == 12
        assert cfg.noise_sigma == 0.01
        assert cfg.weights_path == "" and cfg.mask_path == ""

    def test_default_grid_covers_physical_range(self):
        cfg = default_config()
        g = cfg.sigma_grid()
        assert g.boundaries[0] == 0.0
        assert g.n_bins == 7
        assert g.support_mask.all()
        assert g.sigma_max <= cfg.physical_params().sigma_max_px

    def test_empty_text_is_default(self):
        assert parse_config_text("") == RunConfig()
        assert default_config() == RunConfig()

    def test_every_key_parses_its_default(self):
        # each field's annotation must name a converter that reads its default back
        for f in fields(RunConfig):
            key = "lambda" if f.name == "lam" else f.name
            assert parse_config_text(f"{key} = {f.default}") == RunConfig(), key

    def test_frozen(self):
        cfg = default_config()
        with pytest.raises(AttributeError):
            cfg.rows = 5


class TestParsing:
    def test_round_trip_values_and_comments(self):
        cfg = parse_config_text(
            """
            # comment line
            rows = 32
            cols = 16

            kappa_a = 1.5e-7   # trailing comment
            power_iters = 25
            sigma_boundaries = 0, 2, 4
            support_bins = 1, 2
            """
        )
        assert cfg.shape == (32, 16)
        assert cfg.kappa_a == 1.5e-7
        assert cfg.power_iters == 25
        g = cfg.sigma_grid()
        assert g.n_bins == 2
        np.testing.assert_array_equal(g.support_mask, [True, True])

    def test_lambda_maps_to_solver_field(self):
        cfg = parse_config_text("lambda = 0.25")
        assert cfg.lam == 0.25
        assert cfg.solver_config().lam == 0.25

    def test_unknown_key_cites_origin_and_line(self):
        with pytest.raises(ValueError, match=r"run\.cfg:3: unknown config key 'rowz'"):
            parse_config_text("\nrows = 4\nrowz = 5\n", origin="run.cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match=r":2: duplicate config key 'rows'"):
            parse_config_text("rows = 4\nrows = 5\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match=r":1: expected 'key = value'"):
            parse_config_text("rows: 4")

    def test_bad_float(self):
        with pytest.raises(ValueError, match="expected a number"):
            parse_config_text("kappa_a = fast")

    def test_bad_int(self):
        with pytest.raises(ValueError, match="expected an integer"):
            parse_config_text("rows = 4.5")

    def test_removed_solver_keys_are_unknown(self):
        with pytest.raises(ValueError, match=r":2: unknown config key 'restart'"):
            parse_config_text("rows = 4\nrestart = true\n")
        with pytest.raises(ValueError, match=r":1: unknown config key 'step_safety'"):
            parse_config_text("step_safety = 0.9")
        with pytest.raises(ValueError, match=r":1: unknown config key 'rel_tol'"):
            parse_config_text("rel_tol = 1e-6")

    def test_parse_config_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rows = 9\ncols = 7\n")
        cfg = parse_config(path)
        assert cfg.shape == (9, 7)

    def test_parse_config_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_config(tmp_path / "absent.cfg")


class TestDerivedObjects:
    def test_physical_params(self):
        p = parse_config_text("kappa_a = 3e-7\nkappa_d = 1e-4").physical_params()
        assert p.kappa_a == 3e-7
        assert p.kappa_d == 1e-4
        assert p.horizon == 3600.0

    def test_solver_config(self):
        sc = parse_config_text("lambda = 2.0\nmax_iters = 7\ngap_tol = 1e-8").solver_config()
        assert sc.lam == 2.0
        assert sc.max_iters == 7
        assert sc.gap_tol == 1e-8

    def test_sigma_grid_rejects_empty_lists(self):
        with pytest.raises(ValueError, match="empty list"):
            parse_config_text("sigma_boundaries = ,").sigma_grid()
        with pytest.raises(ValueError, match="empty list"):
            parse_config_text("support_bins = ,").sigma_grid()

    def test_effective_t_stop(self):
        assert default_config().effective_t_stop() == 3600.0
        assert parse_config_text("source_t_stop = 10").effective_t_stop() == 10.0


class TestExplicitSources:
    def test_empty_means_none(self):
        assert default_config().explicit_sources() is None

    def test_full_form(self):
        cfg = parse_config_text("sources = 3:4:2.5:10:200; 8:9")
        srcs = cfg.explicit_sources()
        assert len(srcs) == 2
        assert (srcs[0].m, srcs[0].n, srcs[0].rate) == (3, 4, 2.5)
        assert (srcs[0].t_start, srcs[0].t_stop) == (10.0, 200.0)
        # second emitter inherits the configured defaults
        assert (srcs[1].rate, srcs[1].t_start, srcs[1].t_stop) == (1.0, 0.0, 3600.0)

    def test_defaults_flow_from_other_keys(self):
        cfg = parse_config_text(
            "sources = 1:2\nsource_rate = 4\nsource_t_start = 5\nsource_t_stop = 50"
        )
        src = cfg.explicit_sources()[0]
        assert (src.rate, src.t_start, src.t_stop) == (4.0, 5.0, 50.0)

    def test_malformed_entries(self):
        with pytest.raises(ValueError, match="expected m:n"):
            parse_config_text("sources = 5").explicit_sources()
        with pytest.raises(ValueError, match="expected m:n"):
            parse_config_text("sources = 1:2:3:4:5:6").explicit_sources()
        with pytest.raises(ValueError, match="expected an integer"):
            parse_config_text("sources = 1.5:2").explicit_sources()
        with pytest.raises(ValueError, match="no emitters"):
            parse_config_text("sources = ;").explicit_sources()

    def test_bad_geometry_caught_by_source_type(self):
        with pytest.raises(ValueError):
            parse_config_text("sources = 1:2:-3").explicit_sources()  # negative rate
