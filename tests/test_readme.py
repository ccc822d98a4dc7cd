"""The outputs that README.md prints, byte for byte.

Like the golden sweeps of test_golden.py, the aggregate.csv bytes assume
that numpy and its BLAS give the floating-point results they gave when
the README was written (numpy 2.4.6 with scipy-openblas 0.3.31); another
build may change the last digits of a risk.
"""

from pathlib import Path

from mbem.cli import main

ROOT = Path(__file__).resolve().parents[1]


def printed(first_line: str) -> str:
    """The README's indented block that begins with first_line, without
    its indent, each line ending in a newline."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("    " + first_line)
    block = []
    for line in lines[start:]:
        if not line.startswith("    "):
            break
        block.append(line[4:] + "\n")
    return "".join(block)


def test_the_bound_table_is_what_mbem_bound_prints(capsys):
    command, table = printed("$ mbem bound --rho 0.2 --r-max 5").split(
        "\n", 1)
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out == table


def test_the_paper_claim_aggregate_is_what_the_sweep_writes(tmp_path):
    assert main(["sweep", "--config", str(ROOT / "configs/paper-claim-1.yaml"),
                 "--out-dir", str(tmp_path)]) == 0
    assert ((tmp_path / "aggregate.csv").read_bytes()
            == printed("method,r,mean,stderr,n_seeds").encode())
