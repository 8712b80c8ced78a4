"""GitHub-annotations output, shared with the repro-sanitize CLI.

GitHub Actions turns specially formatted stdout lines into inline PR
annotations: ``::error file=...,line=...,col=...,title=...::message``.
Both CLIs offer ``--format github`` so CI findings land on the diff
instead of only in the job log.
"""

from __future__ import annotations

FORMATS = ("text", "github")


def _escape_property(value: str) -> str:
    """Escape a value used inside the ``key=value`` property list."""
    return (value.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A").replace(":", "%3A").replace(",", "%2C"))


def _escape_message(value: str) -> str:
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def github_annotation(message: str, *, title: str | None = None,
                      path: str | None = None, line: int | None = None,
                      col: int | None = None) -> str:
    """One ``::error`` workflow command.  Location fields are optional:
    sanitizer findings describe runtime schedules, not source lines."""
    props = []
    if path is not None:
        props.append(f"file={_escape_property(path)}")
    if line is not None:
        props.append(f"line={line}")
    if col is not None:
        props.append(f"col={col}")
    if title is not None:
        props.append(f"title={_escape_property(title)}")
    header = "::error " + ",".join(props) if props else "::error"
    return f"{header}::{_escape_message(message)}"
