"""Prompt templates for the three LLM roles in the pipeline.

Kept as plain string constants so scripted providers can match on stable
substrings and tests can recompute token counts.
"""

from __future__ import annotations

import re

GENERATION_TEMPLATE = """\
Instruction: Generate a reasoning path that retrieves the information corresponding to the given question.

Input: Question: {<question>}

Output:"""


BLUEPRINT_TEMPLATE = """\
Given a question, generate the reasoning steps without providing the final answer or specific entities.

Q: What countries are located in Eastern Europe and have the country calling code +373?
A: #1 Identify the countries located in Eastern Europe.
#2 Determine which of these countries has the country calling code +373.

Q: What country that trades with Turkey has an ISO numeric code lower than 012?
A: #1 Identify the countries that are trade partners of Turkey.
#2 Determine which of these countries has an ISO numeric code lower than 012.

Q: Who were the inspirations for the author of This Side of Paradise?
A: #1 Identify the author of This Side of Paradise.
#2 Determine the individuals or works that influenced the author.

Q: What countries border the location where the film Amen is set?
A: #1 Identify the location where the film Amen is set.
#2 Determine the countries that border this location.

Q: Lou Seal is the mascot for the team that last won the World Series when?
A: #1 Identify the team for which Lou Seal is the mascot.
#2 Determine the year this team last won the World Series.

Here is the question.
Q: <question>
A:"""


SELECTION_TEMPLATE = """\
Q: '<question>'
Paths from '<start_entity_names>':
<paths>

Select up to <n> paths most likely to reach the FINAL answer (not intermediate entities). Reply with path numbers only, e.g.: Path 1, Path 2"""


def generation_prompt(question: str) -> str:
    return GENERATION_TEMPLATE.replace("<question>", question)


def blueprint_prompt(question: str) -> str:
    return BLUEPRINT_TEMPLATE.replace("<question>", question)


def selection_prompt(question: str, start_names: str, path_lines: list[str], n: int) -> str:
    # One pass over the template: a placeholder inside the question or a
    # path is left as written.
    values = {"<question>": question, "<start_entity_names>": start_names,
              "<paths>": "\n".join(path_lines), "<n>": str(n)}
    return re.sub("|".join(values), lambda m: values[m[0]], SELECTION_TEMPLATE)
