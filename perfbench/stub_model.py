"""External line-protocol model used by the `cli` workload: f(x) = 0.5 * (x1 + x2).

Usage: python3 stub_model.py [ok|wrong|hang]

It answers each query line as soon as it reads it, the way a simple
external model does.  `wrong` adds 1e-9 to every answer and `hang` stops
answering on the first query; the benchmark's self-test uses them to show
that a wrong output and a missed deadline each count as failures.
"""

import sys
import time


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "ok"
    sys.stdin.readline()  # "DIM <d>"
    sys.stdout.write("OK\n")
    sys.stdout.flush()
    for line in sys.stdin:
        if line.strip() == "":
            continue
        if mode == "hang":
            time.sleep(3600)
        value = 0.5 * sum(float(t) for t in line.split(","))
        if mode == "wrong":
            value += 1e-9
        sys.stdout.write(repr(value) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
