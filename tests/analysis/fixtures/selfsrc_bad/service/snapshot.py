"""Fixture: a truncating binary write of a job snapshot in the service layer."""


def save_job(path: str, data: bytes) -> None:
    with open(path, mode="wb") as handle:
        handle.write(data)
