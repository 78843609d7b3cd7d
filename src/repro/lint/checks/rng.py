"""Rule ``unseeded-rng``: global/legacy RNG calls with process-wide state.

``random.*`` module functions and the legacy ``numpy.random.*`` module
API draw from *process-global* generators.  Any such draw inside the
reproduction pipeline makes results depend on import order, executor
scheduling and whatever other code touched the generator first — the
exact nondeterminism the named-stream discipline of
:mod:`repro.utils.rng` exists to rule out.  Seeding the global generator
(``random.seed`` / ``numpy.random.seed``) is flagged too: it trades
nondeterminism for spooky action between unrelated components.
Constructing a *local* generator is fine when it is given a seed
(``random.Random(0)``, ``numpy.random.default_rng(7)``); called with no
argument, the same constructors seed from OS entropy and are flagged.

Sanctioned alternative: derive a seed with
:func:`repro.utils.rng.derive_seed` and draw from a local
``numpy.random.default_rng(seed)`` / ``RngStreams`` generator.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, LintRule, register_rule

#: Local-generator constructors (``random.Random`` and the ``numpy.random``
#: generators and bit generators): they do *not* touch the global
#: generator, so with a seed argument they are the sanctioned replacement,
#: not the hazard.  Without one they seed from OS entropy.
_SEEDED_CONSTRUCTORS = {
    "Random",
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "BitGenerator",
}

#: Module prefixes whose bare-attribute calls are global-state RNG.
_GLOBAL_RNG_PREFIXES = ("random.", "numpy.random.", "np.random.")


class UnseededRngRule(LintRule):
    rule_id = "unseeded-rng"
    title = "global random.* / legacy numpy.random.* call (process-wide state)"

    def check(self, context: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = context.dotted_name(node.func)
            if dotted is None:
                continue
            for prefix in _GLOBAL_RNG_PREFIXES:
                if not dotted.startswith(prefix):
                    continue
                attr = dotted[len(prefix):]
                if "." in attr:
                    continue
                if attr in _SEEDED_CONSTRUCTORS:
                    if node.args or node.keywords:
                        continue
                    problem = "seeds from OS entropy (no seed argument)"
                else:
                    problem = "draws from the process-global RNG"
                findings.append(
                    self.finding(
                        context,
                        node,
                        f"{dotted}() {problem}; "
                        "derive a seed (repro.utils.rng.derive_seed) and "
                        "use a local numpy.random.default_rng(seed) / "
                        "RngStreams stream instead",
                    )
                )
                break
        return findings


register_rule(UnseededRngRule())
