"""Output ledger: every seed-7 benchmark job's output, job by job, against tests/ledger.json.

    python tests/test_ledger.py --write

Each workload's job list is built by ``bench/workloads.build`` at seed 7
and run as ``[first] + jobs`` through ``bench/jobs.run_job``; each job's
``bench/jobs.digest`` (its exit code, stdout and, for a crosscheck job,
the bytes of its arrays) must equal the recorded one.  A mismatch names
the first job that moved and its argv.  A change that moves outputs on
purpose regenerates the file with ``--write`` and lists the moved jobs.
``--write`` also records, under "readme", the sha256 of each README
command's stdout and of the CSV its sweep writes; ``tests/test_readme.py``,
which runs those commands, checks them.

NumPy picks its SIMD loops for exp, log1p, tan, sin and cos at run time,
so another NumPy or CPU may print other last bits.  The file records the
NumPy version and those loops' targets, and the comparison is skipped,
with the reason, on a host where they differ.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import jobs  # noqa: E402
import workloads  # noqa: E402

LEDGER = Path(__file__).with_name("ledger.json")
SEED = 7


def host() -> dict:
    """NumPy's version and the SIMD target of each exp, log1p, tan, sin and cos loop, by signature."""
    loops = opt_func_info(func_name="^(exp|log1p|tan|sin|cos)$")
    return {
        "numpy": np.__version__,
        "simd": {name: {sig: target["current"] for sig, target in sigs.items()} for name, sigs in loops.items()},
    }


def host_mismatch(ledger: dict) -> str | None:
    """Why outputs are not compared on this host, or None when it is the ledger's."""
    here = host()
    if here == ledger["host"]:
        return None
    return (f"the ledger was written with NumPy {ledger['host']['numpy']} and SIMD loops "
            f"{ledger['host']['simd']}; this host has NumPy {here['numpy']} and {here['simd']}, "
            f"whose last bits may differ, so outputs are not compared")


def job_list(workload: str, workdir: Path) -> list:
    """``[first] + jobs`` of the seed-7 workload, its states written under ``workdir``."""
    first, rest = workloads.build(workload, SEED, workdir)
    return [first, *rest]


def first_moved(job_list: list, digests: list, recorded: list) -> str | None:
    """Message naming the first job whose digest is not the recorded one, or None when none moved."""
    if len(digests) != len(recorded):
        return f"{len(digests)} jobs ran, but the ledger holds {len(recorded)} digests"
    for position, (job, digest, expected) in enumerate(zip(job_list, digests, recorded)):
        if digest != expected:
            return (f"job {job.id} ({job.kind}, run position {position}) moved: "
                    f"digest {digest[:16]}, ledger {expected[:16]}; argv {job.argv}")
    return None


def workload_digest(digests: list) -> str:
    """One sha256 over the hex digests in run order, the workload's fingerprint."""
    h = hashlib.sha256()
    for digest in digests:
        h.update(digest.encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload, its job list and each job's digest, computed once."""
    out = {}
    for workload in workloads.WORKLOADS:
        listed = job_list(workload, tmp_path_factory.mktemp(workload))
        out[workload] = listed, [jobs.digest(jobs.run_job(job)) for job in listed]
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_match_the_ledger(runs, workload):
    ledger = json.loads(LEDGER.read_text())
    reason = host_mismatch(ledger)
    if reason:
        pytest.skip(reason)
    listed, digests = runs[workload]
    moved = first_moved(listed, digests, ledger["jobs"][workload])
    assert moved is None, f"{workload}: {moved}"
    assert workload_digest(digests) == ledger["workloads"][workload]


def test_a_one_ulp_shift_names_its_job(runs):
    # Shift one entry of one crosscheck job's RK4 state by one ulp: the check
    # names that job and no earlier one.
    listed, digests = runs["crosscheck"]
    position = 5
    result = jobs.run_job(listed[position])
    assert jobs.digest(result) == digests[position]
    rk4 = result["rk4"].copy()
    rk4[1, 2] = np.nextafter(rk4[1, 2].real, np.inf) + 1j * rk4[1, 2].imag
    result["rk4"] = rk4
    shifted = list(digests)
    shifted[position] = jobs.digest(result)
    assert first_moved(listed, digests, digests) is None
    moved = first_moved(listed, shifted, digests)
    assert moved.startswith(f"job {listed[position].id} (crosscheck, run position {position}) moved")
    assert moved.endswith(f"argv {listed[position].argv}")


def write() -> None:
    """Run every workload and write its job digests, its fingerprint and this
    host to the ledger, then the digests of the README commands' outputs."""
    import test_readme

    ledger = {"seed": SEED, "host": host(), "workloads": {}, "jobs": {}, "readme": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in workloads.WORKLOADS:
            listed = job_list(workload, Path(workdir))
            digests = [jobs.digest(jobs.run_job(job)) for job in listed]
            ledger["workloads"][workload] = workload_digest(digests)
            ledger["jobs"][workload] = digests
            print(workload, workload_digest(digests)[:16], f"{len(digests)} jobs")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # the sweep writes curves.csv where it runs
        try:
            for command in test_readme.COMMANDS:
                ledger["readme"].update(test_readme.digests(test_readme.outputs(command)))
        finally:
            os.chdir(here)
    for name, digest in ledger["readme"].items():
        print(digest[:16], name)
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the seed-7 output ledger.")
    parser.add_argument("--write", action="store_true", required=True, help="rewrite tests/ledger.json")
    parser.parse_args()
    write()
