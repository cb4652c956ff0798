"""Every ``NAMED`` entry of ``tests/linecover.py`` still names one line.

The script finds a named line by its exact stripped text, and stops when
that text is not on exactly one line of its file. It is not part of tier 1,
since its traced run takes nearly twice tier 1's time; this test reads the
same files inside tier 1, so a stale entry fails there at once."""

import os

import linecover


def test_each_named_line_occurs_once_in_its_file_runs_code_and_has_a_reason():
    stale, unexplained = [], []
    for entry in linecover.NAMED:
        try:
            line = linecover.named_line(entry)
        except ValueError:
            stale.append((entry.path, entry.text))
            continue
        # a comment or a blank line never runs, so naming one would hide nothing
        if line not in linecover.executable_lines(os.path.join(linecover.ROOT, entry.path)):
            stale.append((entry.path, entry.text))
        if not entry.reason.strip():
            unexplained.append((entry.path, entry.text))
    assert not stale, f"named lines not found once, or not executable: {stale}"
    assert not unexplained, f"named lines without a reason: {unexplained}"
