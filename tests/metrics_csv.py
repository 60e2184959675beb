"""Reading a metrics CSV back, for the tests that check what a run wrote."""


def read_metrics_csv(path: str) -> tuple[list[dict], dict]:
    """Parse a metrics CSV back into row dicts plus the embedded config."""
    config: dict = {}
    rows: list[dict] = []
    header: list[str] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                config[key.strip()] = value.strip()
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return rows, config
