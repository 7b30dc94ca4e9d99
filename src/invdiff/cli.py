"""Command-line toolkit.

Subcommands cover the full round trip: ``synth`` renders a ground-truth
emitter layout into a sensed image, ``forward`` applies the imaging
operator to a stored tensor, ``solve`` reconstructs a scale-resolved source
tensor from an image, ``detect`` extracts source positions, ``eval`` scores
them against truth, and ``kernels`` exports the convolution kernel bank.
Every run is deterministic given the configuration file and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, default_config, parse_config
from .detect import aggregate_map, find_sources, match_and_score
from .operator import Observation, build_kernel_bank, forward
from .physics import Source, phi_general, sensor_model, synth_psdr
from .solver import fista_solve
from .tensorio import (
    read_positions_csv,
    read_tensor,
    write_pgm16,
    write_tensor,
    write_truth_csv,
)

_PLACEMENT_ATTEMPTS = 10000


def _add_common(sub):
    sub.add_argument("--config", type=Path, default=None, help="configuration file (key = value lines)")
    sub.add_argument("--out", type=Path, default=Path("."), help="output directory (created if missing)")
    sub.add_argument("--seed", type=int, default=None, help="override the configured random seed")


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _out_dir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _place_sources(cfg: RunConfig, rng: np.random.Generator) -> list[Source]:
    rows, cols = cfg.shape
    margin = cfg.border_margin
    lo_m, hi_m = margin, rows - 1 - margin
    lo_n, hi_n = margin, cols - 1 - margin
    if lo_m > hi_m or lo_n > hi_n:
        raise ValueError(
            f"border_margin {margin} leaves no room on a {rows} x {cols} image"
        )
    if cfg.num_sources < 0:
        raise ValueError(f"num_sources must be >= 0, got {cfg.num_sources}")
    t0, t1 = cfg.source_t_start, cfg.effective_t_stop()
    placed: list[Source] = []
    attempts = 0
    while len(placed) < cfg.num_sources:
        if attempts >= _PLACEMENT_ATTEMPTS * max(cfg.num_sources, 1):
            raise ValueError(
                f"could not place {cfg.num_sources} emitters at least "
                f"{cfg.source_min_separation} px apart inside the margins"
            )
        attempts += 1
        m = int(rng.integers(lo_m, hi_m + 1))
        n = int(rng.integers(lo_n, hi_n + 1))
        if all(
            np.hypot(m - s.m, n - s.n) >= cfg.source_min_separation for s in placed
        ):
            placed.append(Source(m=m, n=n, rate=cfg.source_rate, t_start=t0, t_stop=t1))
    return placed


def _cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    params = cfg.physical_params()
    grid = cfg.sigma_grid()
    rng = np.random.default_rng(cfg.seed)
    sources = cfg.explicit_sources()
    if sources is None:
        sources = _place_sources(cfg, rng)
    phi = phi_general(params, cfg.tau_steps, cfg.phi_eps)
    psdr = synth_psdr(sources, grid, phi, cfg.shape)
    bank = build_kernel_bank(grid, cfg.psf_sigma, cfg.quad_order)
    clean = forward(psdr, bank)
    sensed = sensor_model(clean, cfg.noise_sigma, cfg.bits, rng)
    write_tensor(out / "psdr.idf", psdr.data)
    write_tensor(out / "clean.idf", clean)
    write_tensor(out / "sensed.idf", sensed)
    write_truth_csv(out / "truth.csv", sources)
    if args.pgm:
        write_pgm16(out / "clean.pgm", clean)
        write_pgm16(out / "sensed.pgm", sensed)
    print(
        f"synth: {len(sources)} emitters -> {out / 'sensed.idf'} "
        f"(peak {clean.max(initial=0.0):.6g}, noise {cfg.noise_sigma}, bits {cfg.bits})"
    )
    return 0


def _cmd_forward(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    grid = cfg.sigma_grid()
    tensor = read_tensor(args.input)
    if tensor.ndim != 3:
        raise ValueError(f"{args.input}: expected an M x N x K tensor, got rank {tensor.ndim}")
    bank = build_kernel_bank(grid, cfg.psf_sigma, cfg.quad_order)
    img = forward(tensor, bank)
    write_tensor(out / "forward.idf", img)
    if args.pgm:
        write_pgm16(out / "forward.pgm", img)
    print(f"forward: {args.input} -> {out / 'forward.idf'} (peak {img.max(initial=0.0):.6g})")
    return 0


def _read_observation(cfg: RunConfig, data: np.ndarray) -> Observation:
    if cfg.weights_path:
        weights = read_tensor(cfg.weights_path)
    else:
        weights = np.ones_like(data)
    if cfg.mask_path:
        mask = read_tensor(cfg.mask_path)
    else:
        mask = np.ones_like(data)
    return Observation(data=data, weights=weights, mask=mask)


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    grid = cfg.sigma_grid()
    data = read_tensor(args.input)
    if data.ndim != 2:
        raise ValueError(f"{args.input}: expected a 2D image, got rank {data.ndim}")
    obs = _read_observation(cfg, data)
    bank = build_kernel_bank(grid, cfg.psf_sigma, cfg.quad_order)
    recovered, trace = fista_solve(obs, bank, cfg.solver_config())
    write_tensor(out / "recovered.idf", recovered.data)
    trace.to_csv(out / "trace.csv")
    print(
        f"solve: {trace.iterations} iterations, converged={trace.converged}, "
        f"cost {trace.costs[-1]:.6g} (data {trace.data_terms[-1]:.6g}, "
        f"reg {trace.reg_terms[-1]:.6g}), norm bound {trace.op_norm:.6g}, "
        f"step {trace.step:.3g}"
    )
    return 0


def _activity_from_file(path: Path, cfg: RunConfig) -> np.ndarray:
    tensor = read_tensor(path)
    if tensor.ndim == 3:
        return aggregate_map(tensor, cfg.sigma_grid())
    if tensor.ndim == 2:
        return tensor
    raise ValueError(f"{path}: expected rank 2 or 3, got rank {tensor.ndim}")


def _cmd_detect(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    activity = _activity_from_file(args.input, cfg)
    dets = find_sources(activity, cfg.detect_rel_threshold, cfg.detect_min_separation)
    dets.to_csv(out / "detections.csv")
    print(f"detect: {len(dets)} sources -> {out / 'detections.csv'}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    activity = _activity_from_file(args.input, cfg)
    dets = find_sources(activity, cfg.detect_rel_threshold, cfg.detect_min_separation)
    truths = read_positions_csv(args.truth)
    report = match_and_score(dets, truths, cfg.match_radius)
    dets.to_csv(out / "detections.csv")
    report.to_csv(out / "metrics.csv")
    print(
        f"eval: precision {report.precision:.4f}, recall {report.recall:.4f}, "
        f"f1 {report.f1:.4f} (tp {report.tp}, fp {report.fp}, fn {report.fn})"
    )
    return 0


def _cmd_kernels(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    grid = cfg.sigma_grid()
    bank = build_kernel_bank(grid, cfg.psf_sigma, cfg.quad_order)
    for k, g in enumerate(bank.kernels, start=1):
        write_tensor(out / f"kernel_{k:02d}.idf", g)
        print(
            f"kernels: bin {k} radius {bank.radii[k - 1]} "
            f"mass {g.sum():.9g} (target {np.sqrt(grid.widths[k - 1]):.9g})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invdiff",
        description=(
            "Synthesize and invert bound-particle images of surface-binding "
            "diffusion: forward rendering, group-sparse reconstruction, and "
            "source detection."
        ),
    )
    parser.add_argument("--version", action="version", version=f"invdiff {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("synth", help="render emitters into psdr/clean/sensed files")
    _add_common(s)
    s.add_argument("--pgm", action="store_true", help="also write 16-bit PGM previews")
    s.set_defaults(func=_cmd_synth)

    s = subs.add_parser("forward", help="apply the imaging operator to a tensor file")
    _add_common(s)
    s.add_argument("--input", type=Path, required=True, help="M x N x K tensor (.idf)")
    s.add_argument("--pgm", action="store_true", help="also write a 16-bit PGM preview")
    s.set_defaults(func=_cmd_forward)

    s = subs.add_parser("solve", help="reconstruct a source tensor from an image")
    _add_common(s)
    s.add_argument("--input", type=Path, required=True, help="observed image (.idf, rank 2)")
    s.set_defaults(func=_cmd_solve)

    s = subs.add_parser("detect", help="find sources in a recovered tensor or map")
    _add_common(s)
    s.add_argument("--input", type=Path, required=True, help="tensor (.idf, rank 2 or 3)")
    s.set_defaults(func=_cmd_detect)

    s = subs.add_parser("eval", help="detect sources and score them against truth")
    _add_common(s)
    s.add_argument("--input", type=Path, required=True, help="tensor (.idf, rank 2 or 3)")
    s.add_argument("--truth", type=Path, required=True, help="truth CSV with m,n columns")
    s.set_defaults(func=_cmd_eval)

    s = subs.add_parser("kernels", help="export the per-bin convolution kernels")
    _add_common(s)
    s.set_defaults(func=_cmd_kernels)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
