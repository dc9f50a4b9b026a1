"""Run one job spec in a fresh interpreter and exit 0 when it succeeded.

run.py times this script to measure set-up: interpreter start,
``import spinpath`` and the workload's first job.

    python3 bench/first_job.py JOB_SPEC.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jobs import run_job  # noqa: E402
from workloads import Job  # noqa: E402

if __name__ == "__main__":
    job = Job.from_json(json.loads(Path(sys.argv[1]).read_text()))
    sys.exit(0 if run_job(job)["code"] == 0 else 1)
