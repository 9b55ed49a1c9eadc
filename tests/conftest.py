"""Shared pytest wiring and test helpers.

The acceptance tests register one verdict line each; the terminal summary
prints the scoreboard after the run, where output capture can no longer
swallow it.
"""

import json
import struct

ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance scoreboard")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def edit_checkpoint_header(path, edit) -> None:
    """Rewrite a checkpoint file with edit(header) applied to its JSON header."""
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[:4])
    header = json.loads(raw[4 : 4 + n])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + n :])
