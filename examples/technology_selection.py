"""Technology selection (paper Section 5): why the moderate flavour wins.

Evaluates the Wallace multiplier family on the three ST CMOS09 flavours
(ULL / LL / HS), reproducing the Tables 1/3/4 story, then sweeps a
synthetic flavour space around LL to show the paper's conclusion that
"extreme technology flavors are penalized".

Run:  python examples/technology_selection.py
"""

import numpy as np

from repro import (
    ST_CMOS09_HS,
    ST_CMOS09_LL,
    ST_CMOS09_ULL,
    Study,
    flavour_line,
    numerical_optimum,
)
from repro.core.calibration import calibrate_row
from repro.experiments.paper_data import (
    PAPER_FREQUENCY,
    TABLE1_BY_NAME,
    TABLE3_ROWS,
    TABLE4_ROWS,
    WALLACE_FAMILY,
)

FLAVOURS = [ST_CMOS09_ULL, ST_CMOS09_LL, ST_CMOS09_HS]


def calibrated_family():
    """The three Wallace architectures, calibrated per flavour's tables."""
    family = {}
    for name in WALLACE_FAMILY:
        family[name] = calibrate_row(
            TABLE1_BY_NAME[name], ST_CMOS09_LL, PAPER_FREQUENCY
        )
    return family


def main() -> None:
    family = calibrated_family()

    print("Wallace family across ST CMOS09 flavours (uW at 31.25 MHz)\n")
    answer = (
        Study("technology-selection")
        .architectures(*family.values())
        .technologies(*FLAVOURS)
        .frequencies(PAPER_FREQUENCY)
        .solver("numerical")
        .run()
    )
    matrix = {(r.architecture, r.technology): r for r in answer}
    header = f"{'architecture':18s}" + "".join(
        f"{tech.name.split('-')[-1]:>10s}" for tech in FLAVOURS
    )
    print(header)
    for name in WALLACE_FAMILY:
        cells = "".join(
            f"{matrix[(name, tech.name)].ptot * 1e6:10.2f}" for tech in FLAVOURS
        )
        print(f"{name:18s}{cells}")

    winner = answer.filter(lambda r: r.architecture == "Wallace").best()
    print(
        f"\nBest flavour for the basic Wallace multiplier: "
        f"{winner.technology} at {winner.ptot * 1e6:.2f} uW"
    )
    print(
        "Note the Section 5 signature: calibrating the LL architecture on "
        "each flavour's own table reproduces the published LL < ULL < HS "
        "ordering and the parallelisation flip on HS."
    )

    # Published cross-flavour rows for reference.
    print("\nPublished cross-flavour optima (uW):")
    print(f"{'architecture':18s}{'ULL':>10s}{'LL':>10s}{'HS':>10s}")
    for index, name in enumerate(WALLACE_FAMILY):
        print(
            f"{name:18s}{TABLE3_ROWS[index]['ptot'] * 1e6:10.2f}"
            f"{TABLE1_BY_NAME[name].ptot * 1e6:10.2f}"
            f"{TABLE4_ROWS[index]['ptot'] * 1e6:10.2f}"
        )

    # The "moderate trade-off" map: walk the flavour line ULL <- LL -> HS
    # (and extrapolate beyond both ends).  A real flavour trades all of
    # (Io, zeta, alpha) together: more extreme low-leakage means slower
    # and more extreme high-speed means a lower alpha-power exponent —
    # and the optimum power forms a valley at the moderate flavour,
    # exactly the paper's conclusion.
    print("\nOptimal power of the basic Wallace along the flavour line")
    print("(t = -1: ULL, t = 0: LL, t = +1: HS; extrapolated beyond both ends)\n")
    arch = family["Wallace"]
    print(f"{'t':>6s} {'Io[uA]':>8s} {'zeta[pF]':>9s} {'alpha':>6s} {'Ptot[uW]':>9s}")
    results = []
    for t in np.linspace(-1.6, 1.6, 13):
        flavour = flavour_line(t)
        try:
            power = numerical_optimum(arch, flavour, PAPER_FREQUENCY).ptot * 1e6
        except ValueError:
            power = float("nan")
        results.append((t, power))
        print(
            f"{t:6.2f} {flavour.io * 1e6:8.2f} {flavour.zeta * 1e12:9.2f} "
            f"{flavour.alpha:6.3f} {power:9.2f}"
        )
    finite = [(t, p) for t, p in results if np.isfinite(p)]
    best_t = min(finite, key=lambda item: item[1])[0]
    print(
        f"\nThe valley sits at t = {best_t:+.2f} — the moderate flavour; both "
        f"extremes (very low leakage = slow, very high speed = low alpha, "
        f"leaky) cost power, as Section 5 concludes."
    )


if __name__ == "__main__":
    main()
