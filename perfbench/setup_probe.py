"""Set-up time of a fresh interpreter: import weildescent, load every input.

    python3 perfbench/setup_probe.py SRC_DIR PROBLEM_FILE...

Prints the seconds from just before ``import weildescent`` to just after the
last ``load_problem_text``.  Inputs that the program rejects (the malformed
cases of verify-cli) count too: rejecting them is part of loading.
"""

import sys
import time


def main(argv):
    src, paths = argv[0], argv[1:]
    texts = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            texts.append(fh.read())
    start = time.perf_counter()
    sys.path.insert(0, src)
    from weildescent.errors import WeilDescentError
    from weildescent.problemfile import load_problem_text

    for text in texts:
        try:
            load_problem_text(text)
        except WeilDescentError:
            pass
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
