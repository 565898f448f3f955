"""Experiments T3/T4 — Wallace family on the ULL and HS flavours.

Tables 3 and 4 re-evaluate the three Wallace multipliers on the two
extreme technology flavours.  Only ``(Vdd, Vth, Ptot)`` are published per
row; the architecture inputs ``(N, a, LDeff)`` are those of Table 1, and
the dynamic/static split is recovered from the stationarity condition
(:func:`repro.core.calibration.calibrate_from_total`).

The headline Section 5 claims validated here:

* Table 3 (ULL): parallelisation still helps (par < basic), par4 worse
  than par — and every ULL power exceeds its LL counterpart;
* Table 4 (HS): parallelisation *hurts* (basic < par < par4) because the
  leakage of the doubled cell count outweighs the relaxed timing;
* overall: LL < ULL < HS for this workload — the moderate flavour wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.calibration import calibrate_from_total
from ..core.closed_form import ptot_eq13
from ..core.optimum import approximation_error_percent
from ..core.technology import ST_CMOS09_HS, ST_CMOS09_ULL, Technology
from ..study import Study
from .paper_data import (
    PAPER_FREQUENCY,
    TABLE1_BY_NAME,
    TABLE3_ROWS,
    TABLE4_ROWS,
)
from .report import microwatts, render_table


@dataclass(frozen=True)
class WallaceFamilyRow:
    """One regenerated Table 3/4 row (powers in watts)."""

    name: str
    vdd: float
    vth: float
    ptot: float
    ptot_eq13: float
    error_percent: float
    published_vdd: float
    published_vth: float
    published_ptot: float


@dataclass(frozen=True)
class WallaceFamilyResult:
    """A regenerated Table 3 or Table 4."""

    table_name: str
    technology: Technology
    rows: list[WallaceFamilyRow]

    def row(self, name: str) -> WallaceFamilyRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no row named {name!r}")

    def max_abs_error_percent(self) -> float:
        return max(abs(row.error_percent) for row in self.rows)

    def render(self) -> str:
        headers = [
            "architecture", "Vdd", "Vth", "Ptot[uW]", "Eq13[uW]", "err%",
            "paper Vdd", "paper Ptot[uW]",
        ]
        rows = [
            [
                row.name,
                f"{row.vdd:.3f}",
                f"{row.vth:.3f}",
                microwatts(row.ptot),
                microwatts(row.ptot_eq13),
                f"{row.error_percent:+.2f}",
                f"{row.published_vdd:.3f}",
                microwatts(row.published_ptot),
            ]
            for row in self.rows
        ]
        return render_table(
            headers,
            rows,
            title=(
                f"{self.table_name} — Wallace family on {self.technology.name} "
                f"(f = {PAPER_FREQUENCY / 1e6:g} MHz)"
            ),
        )


def _run_family(
    table_name: str, published_rows, tech: Technology
) -> WallaceFamilyResult:
    archs = []
    for published in published_rows:
        table1 = TABLE1_BY_NAME[published["name"]]
        archs.append(
            calibrate_from_total(
                name=published["name"],
                n_cells=table1.n_cells,
                activity=table1.activity,
                logical_depth=table1.logical_depth,
                vdd=published["vdd"],
                vth=published["vth"],
                ptot=published["ptot"],
                tech=tech,
                frequency=PAPER_FREQUENCY,
                area=table1.area,
            )
        )
    # One Study batch for the whole family; records align with ``archs``.
    resultset = (
        Study(table_name.lower().replace(" ", ""))
        .architectures(*archs)
        .technologies(tech)
        .frequencies(PAPER_FREQUENCY)
        .solver("numerical")
        .run()
    )
    rows = []
    for published, arch, record in zip(published_rows, archs, resultset):
        if not record.feasible:
            # The Wallace family is feasible on every published flavour;
            # an infeasible calibration is a data error, not a result.
            raise ValueError(
                f"{table_name}: {record.architecture} infeasible — {record.reason}"
            )
        eq13 = ptot_eq13(arch, tech, PAPER_FREQUENCY)
        rows.append(
            WallaceFamilyRow(
                name=published["name"],
                vdd=record.vdd,
                vth=record.vth,
                ptot=record.ptot,
                ptot_eq13=eq13,
                error_percent=approximation_error_percent(record.ptot, eq13),
                published_vdd=published["vdd"],
                published_vth=published["vth"],
                published_ptot=published["ptot"],
            )
        )
    return WallaceFamilyResult(table_name=table_name, technology=tech, rows=rows)


def run_table3() -> WallaceFamilyResult:
    """Regenerate Table 3 (ULL flavour)."""
    return _run_family("Table 3", TABLE3_ROWS, ST_CMOS09_ULL)


def run_table4() -> WallaceFamilyResult:
    """Regenerate Table 4 (HS flavour)."""
    return _run_family("Table 4", TABLE4_ROWS, ST_CMOS09_HS)
