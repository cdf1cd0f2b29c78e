"""Bundled evaluation problems with their expected outcomes.

Expected answers were fixed ahead of the implementation by exhaustive
enumeration of all unknown assignments in 0..50 over each problem's
equations (the oracle lives in tests/oracle.py); "contradiction" marks a
problem whose stated data admits no consistent assignment.
"""
from .quantity import _Frozen


class CorpusProblem(_Frozen):
    __slots__ = ("id", "text", "expected_verdict", "expected_answer", "pronoun_free")

    def __init__(self, id, text, expected_verdict, expected_answer, pronoun_free):
        self.id = id
        self.text = text
        self.expected_verdict = expected_verdict  # "solved" | "contradiction"
        self.expected_answer = expected_answer  # int | None
        self.pronoun_free = pronoun_free


CORPUS = (
    CorpusProblem(
        "basket-apples",
        "Ruth had 3 apples. She put 2 apples into a basket. How many apples "
        "are there in the basket now, if in the beginning there were 4 apples "
        "in the basket?",
        "solved", 6, pronoun_free=False,
    ),
    CorpusProblem(
        "candy-gifts",
        "David gave 3 candies to Ruth, and John gave 2 candies to David. "
        "Now David has 4 candies more than Ruth has. How many candies does "
        "David have now, if Ruth had 7 candies in the beginning?",
        "solved", 14, pronoun_free=True,
    ),
    CorpusProblem(
        "apples-change-in",
        "John had 5 apples. Mary gave him 3 apples. How many apples does "
        "John have now?",
        "solved", 8, pronoun_free=False,
    ),
    CorpusProblem(
        "plums-change-out",
        "Mary had 5 plums. Then she gave 3 plums to Tom. How many plums "
        "does Mary have now?",
        "solved", 2, pronoun_free=False,
    ),
    CorpusProblem(
        "dolls-combine",
        "Ruth has 3 dolls. Ann has 4 dolls. How many dolls do they have "
        "altogether?",
        "solved", 7, pronoun_free=False,
    ),
    CorpusProblem(
        "flowers-compare",
        "Sara has 6 flowers. Clara has 3 flowers more than Sara. How many "
        "flowers does Clara have?",
        "solved", 9, pronoun_free=True,
    ),
    CorpusProblem(
        "apples-altogether",
        "Tom and Ruth had 8 apples altogether. Ruth gave Tom 3 apples. "
        "Now Tom has 5 apples. How many apples did Ruth have in the beginning?",
        "solved", 6, pronoun_free=True,
    ),
    CorpusProblem(
        "boys-in-room",
        "Two boys left a room. 3 girls and 5 boys remained in the room. "
        "How many boys were there in the room in the beginning?",
        "solved", 7, pronoun_free=True,
    ),
    CorpusProblem(
        "tickets-bought",
        "5 girls bought 6 tickets. 7 boys bought 8 tickets. How many "
        "tickets did the children buy altogether?",
        "solved", 14, pronoun_free=True,
    ),
    CorpusProblem(
        "nuts-chain",
        "Ruth had 5 nuts more than Dan had. Ruth gave Dan 3 nuts. Dan gave "
        "2 nuts to David. Now Dan has 4 nuts and David has 6 nuts. How many "
        "nuts does Ruth have now?",
        "solved", 5, pronoun_free=True,
    ),
    CorpusProblem(
        "eggs-places",
        "In the beginning there were 4 eggs more in a refrigerator than "
        "there were in a box. Sara transferred 5 eggs from a basket into "
        "the refrigerator. After this David transferred 6 eggs from the "
        "basket into the box. 3 eggs fell out of the box. Now there are 2 "
        "eggs more in the box than there are in the basket. How many eggs "
        "are there in the basket now, if there are 12 eggs in the "
        "refrigerator?",
        "solved", 4, pronoun_free=True,
    ),
    CorpusProblem(
        "candies-conflict",
        "Fred had 10 candies. Dan gave 2 candies to Susan and Fred gave 3 "
        "candies to Dan. Now Dan has 4 candies less than Susan has. How "
        "many candies does Dan have now, if it is known that Susan had 7 "
        "candies in the beginning and Fred has 9 candies now?",
        "contradiction", None, pronoun_free=True,
    ),
)


def by_id(problem_id) -> CorpusProblem:
    for problem in CORPUS:
        if problem.id == problem_id:
            return problem
    raise KeyError(problem_id)
