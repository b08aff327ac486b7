"""Safe interpreter tests: the subset, the sandbox, the budget."""

import pytest

from repro.core.interpreter import (
    CodeValidationError,
    ExecutionBudgetExceeded,
    ExecutionError,
    SafeInterpreter,
    validate_source,
)


@pytest.fixture
def interp():
    return SafeInterpreter(step_budget=10_000)


class TestValidation:
    def test_plain_functions_accepted(self):
        validate_source("def f(x):\n    return x + 1\n")

    def test_import_rejected(self):
        with pytest.raises(CodeValidationError):
            validate_source("import os\n")
        with pytest.raises(CodeValidationError):
            validate_source("from os import path\n")

    def test_class_definition_rejected(self):
        with pytest.raises(CodeValidationError):
            validate_source("class X:\n    pass\n")

    def test_dunder_names_rejected(self):
        with pytest.raises(CodeValidationError):
            validate_source("def f():\n    return __builtins__\n")

    def test_underscore_attributes_rejected(self):
        with pytest.raises(CodeValidationError):
            validate_source("def f(x):\n    return x.__class__\n")
        with pytest.raises(CodeValidationError):
            validate_source("def f(x):\n    return x._private\n")

    def test_format_attribute_rejected(self):
        # The classic "{0.__class__}".format sandbox escape.
        with pytest.raises(CodeValidationError):
            validate_source('def f(x):\n    return "{}".format(x)\n')

    def test_decorators_rejected(self):
        with pytest.raises(CodeValidationError):
            validate_source("@staticmethod\ndef f():\n    pass\n")

    def test_global_nonlocal_rejected(self):
        with pytest.raises(CodeValidationError):
            validate_source("def f():\n    global x\n    x = 1\n")

    def test_with_statement_rejected(self):
        with pytest.raises(CodeValidationError):
            validate_source("def f():\n    with open('x'):\n        pass\n")

    def test_yield_rejected(self):
        with pytest.raises(CodeValidationError):
            validate_source("def f():\n    yield 1\n")

    def test_syntax_error_becomes_validation_error(self):
        with pytest.raises(CodeValidationError, match="syntax"):
            validate_source("def f(:\n")

    def test_comprehensions_and_fstrings_allowed(self):
        validate_source(
            "def f(items):\n"
            "    squares = [x * x for x in items if x > 0]\n"
            "    return f'{len(squares)} results'\n"
        )

    def test_try_except_allowed(self):
        validate_source(
            "def f(d):\n"
            "    try:\n"
            "        return d['k']\n"
            "    except KeyError:\n"
            "        return None\n"
        )


class TestExecution:
    def test_basic_invocation(self, interp):
        functions = interp.load("def add(a, b):\n    return a + b\n")
        assert interp.invoke(functions, "add", 2, 3) == 5

    def test_state_dict_mutation(self, interp):
        functions = interp.load(
            "def bump(state):\n    state['n'] = state['n'] + 1\n    return state['n']\n"
        )
        state = {"n": 0}
        assert interp.invoke(functions, "bump", state) == 1
        assert state["n"] == 1

    def test_builtins_available(self, interp):
        functions = interp.load(
            "def f(items):\n    return sorted(set(items))[:3]\n"
        )
        assert interp.invoke(functions, "f", [3, 1, 2, 3]) == [1, 2, 3]

    def test_dangerous_builtins_absent(self, interp):
        for name in ["open", "eval", "exec", "getattr", "setattr", "type", "globals"]:
            functions = interp.load(f"def f():\n    return {name}\n")
            with pytest.raises(ExecutionError, match="NameError"):
                interp.invoke(functions, "f")

    def test_unknown_method_raises(self, interp):
        functions = interp.load("def f():\n    return 1\n")
        with pytest.raises(ExecutionError, match="no method"):
            interp.invoke(functions, "g")

    def test_runtime_error_wrapped(self, interp):
        functions = interp.load("def f():\n    return 1 / 0\n")
        with pytest.raises(ExecutionError, match="ZeroDivisionError"):
            interp.invoke(functions, "f")

    def test_raise_inside_rdo(self, interp):
        functions = interp.load(
            "def f(x):\n    if x < 0:\n        raise ValueError('negative')\n    return x\n"
        )
        assert interp.invoke(functions, "f", 5) == 5
        with pytest.raises(ExecutionError, match="negative"):
            interp.invoke(functions, "f", -1)

    def test_infinite_loop_hits_budget(self, interp):
        functions = interp.load("def f():\n    while True:\n        pass\n")
        with pytest.raises(ExecutionBudgetExceeded):
            interp.invoke(functions, "f")

    def test_deep_recursion_hits_budget(self, interp):
        functions = interp.load("def f(n):\n    return f(n + 1)\n")
        with pytest.raises(ExecutionBudgetExceeded):
            interp.invoke(functions, "f", 0)

    def test_budget_refreshes_between_invocations(self, interp):
        functions = interp.load(
            "def f(n):\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        total = total + i\n"
            "    return total\n"
        )
        for __ in range(5):
            assert interp.invoke(functions, "f", 100) == 4950

    def test_explicit_budget_override(self, interp):
        functions = interp.load(
            "def f(n):\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        total = total + 1\n"
            "    return total\n"
        )
        with pytest.raises(ExecutionBudgetExceeded):
            interp.invoke(functions, "f", 100, budget=10)

    def test_steps_used_reported(self, interp):
        functions = interp.load(
            "def f(n):\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        total = total + 1\n"
            "    return total\n"
        )
        interp.invoke(functions, "f", 50)
        # 1 function entry + 50 loop iterations.
        assert interp.steps_used == 51

    def test_helper_functions_can_call_each_other(self, interp):
        functions = interp.load(
            "def helper(x):\n    return x * 2\n\ndef main(x):\n    return helper(x) + 1\n"
        )
        assert interp.invoke(functions, "main", 10) == 21

    def test_extra_env_exposed(self, interp):
        functions = interp.load(
            "def f(key):\n    return lookup(key)\n",
            extra_env={"lookup": {"a": 1}.get},
        )
        assert interp.invoke(functions, "f", "a") == 1

    def test_extra_env_underscore_rejected(self, interp):
        with pytest.raises(CodeValidationError):
            interp.load("def f():\n    return 1\n", extra_env={"_hidden": 1})

    def test_string_methods_usable(self, interp):
        functions = interp.load(
            "def f(text, needle):\n    return needle in text and text.upper()\n"
        )
        assert interp.invoke(functions, "f", "hello", "ell") == "HELLO"


class TestDunderBindings:
    """The step counter is a name in the RDO's environment, and the
    charge reads it wherever it is compiled: a dunder bound by the
    RDO's own code would shadow it.  Every binding position is RDO102,
    at load as at publish."""

    def test_a_parameter_shadowing_the_counter_is_rejected_at_load(self):
        # Loaded, this ran 100,000 iterations under a budget of 1,000
        # and reported 0 steps used.
        source = (
            "def f(n, __step__=lambda: None):\n"
            "    i = 0\n"
            "    while i < n:\n"
            "        i = i + 1\n"
            "    return i\n"
        )
        with pytest.raises(CodeValidationError, match="'__step__' \\(rule RDO102"):
            SafeInterpreter(step_budget=1_000).load(source)

    @pytest.mark.parametrize(
        "source",
        [
            "def f(__x):\n    return 1\n",
            "def f(__x, /):\n    return 1\n",
            "def f(*__x):\n    return 1\n",
            "def f(*, __x=1):\n    return 1\n",
            "def f(**__x):\n    return 1\n",
            "def f():\n    g = lambda __x: 1\n    return g(2)\n",
            "def __exhausted__():\n    return 1\n",
            "def f():\n    def __step__():\n        return 1\n    return 1\n",
            "def f(d):\n    try:\n        return d[1]\n    except KeyError as __step__:\n        return 2\n",
        ],
        ids=[
            "positional", "positional-only", "star-args", "keyword-only",
            "star-star-kwargs", "lambda", "module-level-def", "nested-def",
            "except-as",
        ],
    )
    def test_every_binding_position(self, source):
        with pytest.raises(CodeValidationError, match="RDO102"):
            validate_source(source)


class TestBudgetIsolation:
    def test_two_rdos_budgets_independent(self):
        """Each load() gets its own counter; exhausting one RDO's
        budget does not poison the other's next invocation."""
        interp = SafeInterpreter(step_budget=100)
        spinner = interp.load(
            "def f(n):\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        total = total + 1\n"
            "    return total\n"
        )
        worker = interp.load("def g(x):\n    return x * 2\n")
        with pytest.raises(ExecutionBudgetExceeded):
            interp.invoke(spinner, "f", 1_000)
        assert interp.invoke(worker, "g", 21) == 42
        # And the exhausted one recovers with a fresh budget.
        assert interp.invoke(spinner, "f", 50) == 50

    def test_mutual_recursion_within_one_load_shares_budget(self):
        interp = SafeInterpreter(step_budget=100)
        functions = interp.load(
            "def ping(n):\n"
            "    if n <= 0:\n"
            "        return 0\n"
            "    return pong(n - 1)\n"
            "\n"
            "def pong(n):\n"
            "    return ping(n)\n"
        )
        assert interp.invoke(functions, "ping", 10) == 0
        with pytest.raises(ExecutionBudgetExceeded):
            interp.invoke(functions, "ping", 10_000)
