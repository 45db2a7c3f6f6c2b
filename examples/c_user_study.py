"""Interactive-teaching scenario on a C assignment (the paper's user study).

Builds the cluster pool for the ``special_number`` problem, then plays the
role of a student submitting three successive attempts, printing the feedback
Clara would show after each submission.  Run with::

    python examples/c_user_study.py
"""

from repro.core.pipeline import Clara
from repro.datasets import generate_corpus, get_problem

ATTEMPT_1 = r"""
#include <stdio.h>
int main() {
    int n, sum = 0, d, m;
    scanf("%d", &n);
    m = n;
    while (m > 0) {
        d = m % 10;
        sum = sum + d*d;
        m = m / 10;
    }
    if (sum == n) printf("YES\n");
    else printf("NO\n");
    return 0;
}
"""

ATTEMPT_2 = r"""
#include <stdio.h>
int main() {
    int n, sum = 0, d, m;
    scanf("%d", &n);
    m = n;
    while (m > 0) {
        d = m % 10;
        sum = sum + d*d*d;
        m = m / 10;
    }
    if (sum == n) printf("NO\n");
    else printf("YES\n");
    return 0;
}
"""

ATTEMPT_3 = r"""
#include <stdio.h>
int main() {
    int n, sum = 0, d, m;
    scanf("%d", &n);
    m = n;
    while (m > 0) {
        d = m % 10;
        sum = sum + d*d*d;
        m = m / 10;
    }
    if (sum == n) printf("YES\n");
    else printf("NO\n");
    return 0;
}
"""


def main() -> None:
    problem = get_problem("special_number")
    corpus = generate_corpus(problem, n_correct=20, n_incorrect=0, seed=11)
    clara = Clara(
        cases=problem.cases,
        language="c",
        generic_threshold=100.0,
    )
    clara.add_correct_sources(corpus.correct_sources)
    print(f"{clara.cluster_count} clusters built from {len(corpus.correct)} correct solutions\n")

    for round_number, source in enumerate((ATTEMPT_1, ATTEMPT_2, ATTEMPT_3), start=1):
        outcome = clara.repair_source(source, budget=60.0)
        print(f"--- submission {round_number}: {outcome.status} ({outcome.elapsed:.2f}s)")
        if outcome.feedback is not None:
            print(outcome.feedback.text())
        print()


if __name__ == "__main__":
    main()
