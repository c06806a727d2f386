import pytest

import ledger

# the ledger is recorded at one BLAS thread; at two, four builds move by
# a few units in the last place, so the comparison allows round-off
ROUND_OFF = 1e-12


def test_design_builds_match_the_ledger():
    old, new = ledger.recorded(), ledger.current()
    moved = {key: d for key, d in ledger.deviations(old, new).items() if not d <= ROUND_OFF}
    assert not moved, "\n".join(ledger.report(old, new))


def test_report_names_each_moved_field():
    old = ledger.recorded()
    new = {label: dict(entry) for label, entry in old.items()}
    label = "unit-t1.2-diagreg"
    efficacy = float.fromhex(old[label]["efficacy"])
    new[label]["efficacy"] = float.hex(efficacy * (1.0 + 2**-40))
    new[label]["values"] = {**old[label]["values"], "sha256": "0" * 64}
    del new["ar1-rho0.5-p399-s3.0"]
    assert ledger.report(old, old) == ["bit-identical"]
    deviations = ledger.deviations(old, new)
    assert deviations.keys() == {(label, "efficacy"), ("ar1-rho0.5-p399-s3.0", "build")}
    assert deviations[label, "efficacy"] == pytest.approx(2**-40, rel=1e-3)
    assert ledger.changed_bytes(old, new) == [(label, "values")]
