import pytest

from pivotal.point_process import CountFunctional, Statistic


@pytest.fixture
def as_generic():
    """Turns a count functional into a plain ``Statistic`` of the same f, whose
    default block methods evaluate it configuration by configuration."""

    def convert(g: CountFunctional) -> Statistic:
        return Statistic(eval=g.eval, bound=g.bound, is_event=g.is_event, name=g.name)

    return convert
