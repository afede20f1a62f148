#!/usr/bin/env python3
"""Record the reference answers the benchmark compares against.

    python3 bench/record_reference.py

Runs every workload command once, in declared order, in this process and
writes its exit code and exact stdout to bench/reference.json. Run it only
at a commit whose answers are known to be right; the benchmark then counts
every deviation from them as a failure.
"""

import json

from run import REFERENCE, load_program, run_command
from workloads import all_commands


def main():
    cli = load_program()
    reference = {}
    for cid, argv in all_commands():
        code, stdout = run_command(cli, argv)
        reference[cid] = {"argv": argv, "exit": code, "stdout": stdout}
        print("%-28s exit %d, %d bytes" % (cid, code, len(stdout)), flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
