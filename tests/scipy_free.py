"""Run ``pivotal`` with every ``scipy`` import refused.

    PYTHONPATH=src python tests/scipy_free.py                   # each route once
    PYTHONPATH=src python tests/scipy_free.py CONFIG OUT_DIR    # then the CLI

A meta-path finder refuses ``scipy`` and its submodules, and records each
refusal.  The script imports ``pivotal``, calls once each route that used
``scipy.special`` before (the beta and gamma kernels, the alpha = 1/2 closed
form and the LePage truncation plan), optionally runs the CLI on a config,
and then checks that no scipy import was attempted and no scipy module is
loaded.  Only then does it print "no scipy module loaded".  It exits 4 if
scipy was wanted, otherwise with the CLI's exit code (0 without a config).
"""

import sys


class _RefuseScipy:
    def __init__(self):
        self.refused = []

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            self.refused.append(name)
            raise ModuleNotFoundError(f"{name} is refused", name=name)
        return None


def _run(argv: list[str]) -> int:
    import pivotal
    from pivotal.cli import main as cli_main
    from pivotal.stable import SpectralMeasure, StableParams, truncation_plan

    pivotal.identity_report_binomial(30, 1, 0.9)
    pivotal.identity_report_negbin(3, 4, 0.4)
    pivotal.erlang_cdf(3, 2.0, 1.0)
    pivotal.poisson_tail_integral(0.5, 30)
    pivotal.dimone_residual(0.5, 1.0, 2.0)
    truncation_plan(StableParams(0.8, SpectralMeasure.symmetric_pair(1.0)), trunc_tol=3e-3)
    if not argv:
        return 0
    config, out = argv
    return cli_main(["--config", config, "--out", out])


def main(argv: list[str]) -> int:
    finder = _RefuseScipy()
    sys.meta_path.insert(0, finder)
    try:
        code = _run(argv)
    except ImportError:
        if not finder.refused:
            raise
        code = None
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    if finder.refused or loaded:
        print(f"scipy imports refused: {finder.refused}; scipy modules loaded: {loaded}", file=sys.stderr)
        return 4
    print("no scipy module loaded")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
