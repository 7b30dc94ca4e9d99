"""Time one cold set-up of invdiff in a fresh interpreter.

    python3 pipebench/setup_time.py < scene.cfg

Reads a scene config on standard input, then times what every ``invdiff``
command pays before its real work: importing the package (numpy and scipy
included), parsing the config, the phi table, the kernel bank and the first
FFT plan for the image shape. Prints one JSON line with the times and the
scene's geometry. ``run.py`` starts it several times and reports the median,
since a single cold import varies from one process to the next.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    text = sys.stdin.read()
    t0 = time.perf_counter()
    import invdiff
    import invdiff.cli  # noqa: F401  (commands run through it)

    t_import = time.perf_counter()
    cfg = invdiff.parse_config_text(text)
    phi = invdiff.phi_general(cfg.physical_params(), cfg.tau_steps, cfg.phi_eps)
    bank = invdiff.build_kernel_bank(cfg.sigma_grid(), cfg.psf_sigma, cfg.quad_order)
    pm, pn = bank.plan(cfg.shape)["pad"]
    t_end = time.perf_counter()

    import json

    bins = bank.grid.n_bins
    print(json.dumps({
        "setup_s": t_end - t0,
        "import_s": t_import - t0,
        "geometry": {
            "shape": list(cfg.shape),
            "bins": bins,
            "kernel_radii": [int(r) for r in bank.radii],
            "fft_pad": [pm, pn],
            "fft_pad_px": pm * pn,
            # complex128 half-spectra, one per bin; computed from array sizes
            "spectrum_mb_computed": bins * pm * (pn // 2 + 1) * 16 / 1e6,
            "generations": phi.n_generations,
        },
    }))


if __name__ == "__main__":
    main()
