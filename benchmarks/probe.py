"""One set-up sample: start, import kdcollide and make one warm-up call.

`run.py` times this script from spawn to exit several times and reports
the median as ``setup_s``.
"""

from env import import_kdcollide


def main() -> None:
    import_kdcollide()
    from kdcollide import cli, kdq, model, selftest  # noqa: F401  (import cost is part of set-up)

    cfg = model.ModelConfig(omega_s=4.0, omega_a=1.0, g=1.0, tau=0.5, beta=1.0, lam=0.1)
    rho_s = model.build_system_state(model.SystemStateParams(rho11=0.25, r=0.4, phi_c=0.7))
    dist = kdq.kdq_distribution(kdq.USA, rho_s, cfg)
    if abs(dist.total() - 1.0) > 1e-12:
        raise SystemExit("benchmark: warm-up distribution does not sum to 1")


if __name__ == "__main__":
    main()
