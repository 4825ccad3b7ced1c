"""Shared fixture builders for the test suite."""

import pytest

from chronolint.model import CommitRecord

# Filled by the acceptance suite; echoed after the run, outside capture.
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def hex_hash(i: int) -> str:
    return f"{i:040x}"


def make_record(
    i: int,
    *,
    parents=(),
    committer_epoch: int = 1_000_000_000,
    author_epoch: int | None = None,
    repo: str = "example/repo",
    message: str = "update",
    author: str = "alice",
    committer: str = "alice",
    verified=None,
    stars=None,
) -> CommitRecord:
    """Build a commit record by small integer id; parents are ids too."""
    return CommitRecord(
        hash=hex_hash(i),
        repo_id=repo,
        parents=tuple(hex_hash(p) for p in parents),
        author_date=committer_epoch if author_epoch is None else author_epoch,
        committer_date=committer_epoch,
        author_id=author,
        committer_id=committer,
        message=message,
        verified=verified,
        stars=stars,
    )


@pytest.fixture
def record_builder():
    return make_record
