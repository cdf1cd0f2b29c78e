import pytest
from hypothesis import settings

from schemarith.lexicon import load_default_lexicon

# A longer search, chosen with --hypothesis-profile=ci: the worklist against
# the reference sweep is what guards the solver's pass order.
settings.register_profile("ci", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def lex():
    return load_default_lexicon()
