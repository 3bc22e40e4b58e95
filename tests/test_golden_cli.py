"""Golden CLI output: exit code, stdout and stderr of `evcalc convert`,
`evcalc combine` and the two demos, pinned byte for byte.

The table was taken from the CLI that converted and pooled values with its
own copies of the weight, count and interval maps.  It covers all 16
convert pairs, each from a finite value, a zero-evidence value and a
point, infinite or overflowing value, plus a malformed value per format;
and combine under both rules, including every point/interval pairing of the
lu rule.  Any later CLI or library change must reproduce it exactly.

The `defect-demo` and `delta-demo` cases were added later, taken from the
CLI whose fold read each row's frequency back from its rounded bounds as
l / (l + 1 - u).  Since the fold computes it as w+ / w, the two unit-weight
defect-demo cases end in `final_f` equal to t_plus / steps exactly: 0.7
and 0.5 where the bounds gave 0.7000000000000001 and 0.5000000000000001.
Since each row is the closed form of its two counts instead of iterated
Dempster combination, the demos' `final_bel` (and `final_pl` and the gaps
with it) moved by a few ulps onto the exact value: `delta-demo --delta 2`
ends on 0.11920292202211755, the analytic limit, where the iterated fold
gave 0.11920292202211752; `defect-demo-default` did not move.

Since combine_interval works in mass coordinates, `combine-dempster-three`
prints bel 0.40298507462686567, the float nearest 27/67, where the (bel, pl)
form printed 0.4029850746268657;
test_combine_dempster_three_is_near_a_200_bit_reference checks both of its
printed values against the rule evaluated to 61 digits.

The three cases of an infinite delta were added later, taken from the CLI
whose value types each wrote their own JSON object.  Their `Infinity` and
`-Infinity` are Python's json extension, which RFC 8259 and strict parsers
reject and which evcalc reads back; a change that defines another encoding
re-pins them on purpose.

`defect-demo-pl-clamped` was added later: in its one row bel + width
rounds to 1.0000000000000002, one ulp above 1, and the pl clamp in
evidence_scale._belief_parts makes it 1.0.

`combine-lu-total-ignorance` was added later, with the fix that makes total
ignorance an exact identity of combine_lu: the rule's arithmetic had
printed `"u": 0.8999999999999999`, where Dempster's rule with the vacuous
interval gives its other operand back unchanged.

`combine-lu-unequal-points-051-099`, `convert-belpl-weights-half-point` and
`convert-lu-counts-snap` were added later, taken from the CLI as it was
before they were added, so that every check of the CI's installed-script
step has a case here.  In the last, the raw counts (0.11111111111111112,
0.11111111111111108) snap w_plus down to w_total.

`convert-weights-counts-overflow` and `convert-weights-lu-overflow` were
added with the fix that makes finite weights whose total overflows an
undefined conversion (exit 2); the CLI had exited 1 with `error: counts
must be finite and nonnegative, got (1e+308, inf)`.
`convert-belpl-weights-boolean` was added with the fix that makes a JSON
boolean in a numeric field a malformed value (exit 1); the CLI had read
true as 1 and printed `{"kind": "infinite", "delta": -Infinity}`.
"""

import json
from functools import reduce

import pytest

import highprec
from evcalc import BeliefInterval
from evcalc.cli import main

# (id, argv, exit code, stdout, stderr)
CASES = [
    ('convert-belpl-belpl-finite', ['convert', '--from', 'belpl', '--to', 'belpl', '{"bel":0.2,"pl":0.7}'],
     0, '{"bel": 0.2, "pl": 0.7}\n', ''),
    ('convert-belpl-belpl-zero', ['convert', '--from', 'belpl', '--to', 'belpl', '{"bel":0,"pl":1}'],
     0, '{"bel": 0.0, "pl": 1.0}\n', ''),
    ('convert-belpl-belpl-point', ['convert', '--from', 'belpl', '--to', 'belpl', '{"bel":0.3,"pl":0.3}'],
     0, '{"bel": 0.3, "pl": 0.3}\n', ''),
    ('convert-belpl-weights-finite', ['convert', '--from', 'belpl', '--to', 'weights', '{"bel":0.2,"pl":0.7}'],
     0, '{"kind": "finite", "w_plus": 0.336472236621213, "w_minus": 0.4700036292457357}\n', ''),
    ('convert-belpl-weights-zero', ['convert', '--from', 'belpl', '--to', 'weights', '{"bel":0,"pl":1}'],
     0, '{"kind": "finite", "w_plus": 0.0, "w_minus": 0.0}\n', ''),
    ('convert-belpl-weights-point', ['convert', '--from', 'belpl', '--to', 'weights', '{"bel":0.3,"pl":0.3}'],
     0, '{"kind": "infinite", "delta": 0.8472978603872037}\n', ''),
    ('convert-belpl-weights-certainly-not', ['convert', '--from', 'belpl', '--to', 'weights', '{"bel":0,"pl":0}'],
     0, '{"kind": "infinite", "delta": Infinity}\n', ''),
    ('convert-belpl-weights-certainly', ['convert', '--from', 'belpl', '--to', 'weights', '{"bel":1,"pl":1}'],
     0, '{"kind": "infinite", "delta": -Infinity}\n', ''),
    ('convert-belpl-weights-half-point', ['convert', '--from', 'belpl', '--to', 'weights', '{"bel":0.5,"pl":0.5}'],
     0, '{"kind": "infinite", "delta": 0.0}\n', ''),
    ('convert-belpl-weights-boolean', ['convert', '--from', 'belpl', '--to', 'weights', '{"bel":true,"pl":true}'],
     1, '', "error: bad belief interval object: {'bel': True, 'pl': True}\n"),
    ('convert-belpl-lu-finite', ['convert', '--from', 'belpl', '--to', 'lu', '{"bel":0.2,"pl":0.7}'],
     0, '{"kind": "interval", "l": 0.18625891603580105, "u": 0.7398229125966344}\n', ''),
    ('convert-belpl-lu-zero', ['convert', '--from', 'belpl', '--to', 'lu', '{"bel":0,"pl":1}'],
     0, '{"kind": "interval", "l": 0.0, "u": 1.0}\n', ''),
    ('convert-belpl-lu-point', ['convert', '--from', 'belpl', '--to', 'lu', '{"bel":0.3,"pl":0.3}'],
     0, '{"kind": "point", "value": 0.3}\n', ''),
    ('convert-belpl-counts-finite', ['convert', '--from', 'belpl', '--to', 'counts', '{"bel":0.2,"pl":0.7}'],
     0, '{"w_plus": 0.336472236621213, "w_total": 0.8064758658669486}\n', ''),
    ('convert-belpl-counts-zero', ['convert', '--from', 'belpl', '--to', 'counts', '{"bel":0,"pl":1}'],
     0, '{"w_plus": 0.0, "w_total": 0.0}\n', ''),
    ('convert-belpl-counts-point', ['convert', '--from', 'belpl', '--to', 'counts', '{"bel":0.3,"pl":0.3}'],
     2, '', 'error: infinite weight has no finite counts form\n'),
    ('convert-weights-belpl-finite', ['convert', '--from', 'weights', '--to', 'belpl', '{"kind":"finite","w_plus":2.5,"w_minus":1.5}'],
     0, '{"bel": 0.7138893830941102, "pl": 0.7777292908644875}\n', ''),
    ('convert-weights-belpl-zero', ['convert', '--from', 'weights', '--to', 'belpl', '{"kind":"finite","w_plus":0,"w_minus":0}'],
     0, '{"bel": 0.0, "pl": 1.0}\n', ''),
    ('convert-weights-belpl-infinite', ['convert', '--from', 'weights', '--to', 'belpl', '{"kind":"infinite","delta":1.5}'],
     0, '{"bel": 0.18242552380635632, "pl": 0.18242552380635632}\n', ''),
    ('convert-weights-belpl-infinite-delta', ['convert', '--from', 'weights', '--to', 'belpl', '{"kind":"infinite","delta":Infinity}'],
     0, '{"bel": 0.0, "pl": 0.0}\n', ''),
    ('convert-weights-weights-finite', ['convert', '--from', 'weights', '--to', 'weights', '{"kind":"finite","w_plus":2.5,"w_minus":1.5}'],
     0, '{"kind": "finite", "w_plus": 2.5, "w_minus": 1.5}\n', ''),
    ('convert-weights-weights-zero', ['convert', '--from', 'weights', '--to', 'weights', '{"kind":"finite","w_plus":0,"w_minus":0}'],
     0, '{"kind": "finite", "w_plus": 0.0, "w_minus": 0.0}\n', ''),
    ('convert-weights-weights-infinite', ['convert', '--from', 'weights', '--to', 'weights', '{"kind":"infinite","delta":1.5}'],
     0, '{"kind": "infinite", "delta": 1.5}\n', ''),
    ('convert-weights-lu-finite', ['convert', '--from', 'weights', '--to', 'lu', '{"kind":"finite","w_plus":2.5,"w_minus":1.5}'],
     0, '{"kind": "interval", "l": 0.5, "u": 0.7}\n', ''),
    ('convert-weights-lu-zero', ['convert', '--from', 'weights', '--to', 'lu', '{"kind":"finite","w_plus":0,"w_minus":0}'],
     0, '{"kind": "interval", "l": 0.0, "u": 1.0}\n', ''),
    ('convert-weights-lu-infinite', ['convert', '--from', 'weights', '--to', 'lu', '{"kind":"infinite","delta":1.5}'],
     0, '{"kind": "point", "value": 0.18242552380635632}\n', ''),
    ('convert-weights-counts-finite', ['convert', '--from', 'weights', '--to', 'counts', '{"kind":"finite","w_plus":2.5,"w_minus":1.5}'],
     0, '{"w_plus": 2.5, "w_total": 4.0}\n', ''),
    ('convert-weights-counts-zero', ['convert', '--from', 'weights', '--to', 'counts', '{"kind":"finite","w_plus":0,"w_minus":0}'],
     0, '{"w_plus": 0.0, "w_total": 0.0}\n', ''),
    ('convert-weights-counts-infinite', ['convert', '--from', 'weights', '--to', 'counts', '{"kind":"infinite","delta":1.5}'],
     2, '', 'error: infinite weight has no finite counts form\n'),
    ('convert-weights-counts-overflow', ['convert', '--from', 'weights', '--to', 'counts', '{"kind":"finite","w_plus":1e308,"w_minus":1e308}'],
     2, '', 'error: total weight 1e+308 + 1e+308 overflows, finite counts do not exist\n'),
    ('convert-weights-lu-overflow', ['convert', '--from', 'weights', '--to', 'lu', '{"kind":"finite","w_plus":1e308,"w_minus":1e308}'],
     2, '', 'error: total weight 1e+308 + 1e+308 overflows, finite counts do not exist\n'),
    ('convert-lu-belpl-finite', ['convert', '--from', 'lu', '--to', 'belpl', '{"kind":"interval","l":0.3,"u":0.5}'],
     0, '{"bel": 0.22227070913551245, "pl": 0.2861106169058897}\n', ''),
    ('convert-lu-belpl-zero', ['convert', '--from', 'lu', '--to', 'belpl', '{"kind":"interval","l":0,"u":1}'],
     0, '{"bel": 0.0, "pl": 1.0}\n', ''),
    ('convert-lu-belpl-point', ['convert', '--from', 'lu', '--to', 'belpl', '{"kind":"point","value":0.25}'],
     2, '', 'error: a point carries infinite evidence, finite counts do not exist\n'),
    ('convert-lu-weights-finite', ['convert', '--from', 'lu', '--to', 'weights', '{"kind":"interval","l":0.3,"u":0.5}'],
     0, '{"kind": "finite", "w_plus": 1.4999999999999998, "w_minus": 2.5}\n', ''),
    ('convert-lu-weights-zero', ['convert', '--from', 'lu', '--to', 'weights', '{"kind":"interval","l":0,"u":1}'],
     0, '{"kind": "finite", "w_plus": 0.0, "w_minus": 0.0}\n', ''),
    ('convert-lu-weights-point', ['convert', '--from', 'lu', '--to', 'weights', '{"kind":"point","value":0.25}'],
     2, '', 'error: a point carries infinite evidence, finite counts do not exist\n'),
    ('convert-lu-lu-finite', ['convert', '--from', 'lu', '--to', 'lu', '{"kind":"interval","l":0.3,"u":0.5}'],
     0, '{"kind": "interval", "l": 0.3, "u": 0.5}\n', ''),
    ('convert-lu-lu-zero', ['convert', '--from', 'lu', '--to', 'lu', '{"kind":"interval","l":0,"u":1}'],
     0, '{"kind": "interval", "l": 0.0, "u": 1.0}\n', ''),
    ('convert-lu-lu-point', ['convert', '--from', 'lu', '--to', 'lu', '{"kind":"point","value":0.25}'],
     0, '{"kind": "point", "value": 0.25}\n', ''),
    ('convert-lu-counts-finite', ['convert', '--from', 'lu', '--to', 'counts', '{"kind":"interval","l":0.3,"u":0.5}'],
     0, '{"w_plus": 1.4999999999999998, "w_total": 4.0}\n', ''),
    ('convert-lu-counts-zero', ['convert', '--from', 'lu', '--to', 'counts', '{"kind":"interval","l":0,"u":1}'],
     0, '{"w_plus": 0.0, "w_total": 0.0}\n', ''),
    ('convert-lu-counts-point', ['convert', '--from', 'lu', '--to', 'counts', '{"kind":"point","value":0.25}'],
     2, '', 'error: a point carries infinite evidence, finite counts do not exist\n'),
    ('convert-lu-counts-snap', ['convert', '--from', 'lu', '--to', 'counts', '{"kind":"interval","l":0.1,"u":1}'],
     0, '{"w_plus": 0.11111111111111108, "w_total": 0.11111111111111108}\n', ''),
    ('convert-counts-belpl-finite', ['convert', '--from', 'counts', '--to', 'belpl', '{"w_plus":6,"w_total":10}'],
     0, '{"bel": 0.8805362554515286, "pl": 0.8827243102569744}\n', ''),
    ('convert-counts-belpl-zero', ['convert', '--from', 'counts', '--to', 'belpl', '{"w_plus":0,"w_total":0}'],
     0, '{"bel": 0.0, "pl": 1.0}\n', ''),
    ('convert-counts-belpl-huge', ['convert', '--from', 'counts', '--to', 'belpl', '{"w_plus":1e308,"w_total":1e308}'],
     0, '{"bel": 1.0, "pl": 1.0}\n', ''),
    ('convert-counts-weights-finite', ['convert', '--from', 'counts', '--to', 'weights', '{"w_plus":6,"w_total":10}'],
     0, '{"kind": "finite", "w_plus": 6.0, "w_minus": 4.0}\n', ''),
    ('convert-counts-weights-zero', ['convert', '--from', 'counts', '--to', 'weights', '{"w_plus":0,"w_total":0}'],
     0, '{"kind": "finite", "w_plus": 0.0, "w_minus": 0.0}\n', ''),
    ('convert-counts-weights-huge', ['convert', '--from', 'counts', '--to', 'weights', '{"w_plus":1e308,"w_total":1e308}'],
     0, '{"kind": "finite", "w_plus": 1e+308, "w_minus": 0.0}\n', ''),
    ('convert-counts-lu-finite', ['convert', '--from', 'counts', '--to', 'lu', '{"w_plus":6,"w_total":10}'],
     0, '{"kind": "interval", "l": 0.5454545454545454, "u": 0.6363636363636364}\n', ''),
    ('convert-counts-lu-zero', ['convert', '--from', 'counts', '--to', 'lu', '{"w_plus":0,"w_total":0}'],
     0, '{"kind": "interval", "l": 0.0, "u": 1.0}\n', ''),
    ('convert-counts-lu-huge', ['convert', '--from', 'counts', '--to', 'lu', '{"w_plus":1e308,"w_total":1e308}'],
     0, '{"kind": "point", "value": 1.0}\n', ''),
    ('convert-counts-counts-finite', ['convert', '--from', 'counts', '--to', 'counts', '{"w_plus":6,"w_total":10}'],
     0, '{"w_plus": 6.0, "w_total": 10.0}\n', ''),
    ('convert-counts-counts-zero', ['convert', '--from', 'counts', '--to', 'counts', '{"w_plus":0,"w_total":0}'],
     0, '{"w_plus": 0.0, "w_total": 0.0}\n', ''),
    ('convert-counts-counts-huge', ['convert', '--from', 'counts', '--to', 'counts', '{"w_plus":1e308,"w_total":1e308}'],
     0, '{"w_plus": 1e+308, "w_total": 1e+308}\n', ''),
    ('convert-belpl-malformed', ['convert', '--from', 'belpl', '--to', 'weights', '{"bel":0.2}'],
     1, '', "error: bad belief interval object: {'bel': 0.2}\n"),
    ('convert-weights-malformed', ['convert', '--from', 'weights', '--to', 'weights', '{"kind":"finite","w_plus":1}'],
     1, '', "error: bad weights object: {'kind': 'finite', 'w_plus': 1}\n"),
    ('convert-lu-malformed', ['convert', '--from', 'lu', '--to', 'weights', '{"kind":"interval","l":"x","u":0.5}'],
     1, '', "error: bad frequency object: {'kind': 'interval', 'l': 'x', 'u': 0.5}\n"),
    ('convert-counts-malformed', ['convert', '--from', 'counts', '--to', 'weights', '[6, 10]'],
     1, '', 'error: bad counts object: [6, 10]\n'),
    ('combine-lu-interval-interval', ['combine', '--rule', 'lu', '{"kind":"interval","l":0.3,"u":0.5}', '{"kind":"interval","l":0.2,"u":0.9}'],
     0, '{"kind": "interval", "l": 0.32894736842105265, "u": 0.5131578947368421}\n', ''),
    ('combine-lu-total-ignorance', ['combine', '--rule', 'lu', '{"kind":"interval","l":0,"u":1}', '{"kind":"interval","l":0.2,"u":0.9}'],
     0, '{"kind": "interval", "l": 0.2, "u": 0.9}\n', ''),
    ('combine-lu-point-interval', ['combine', '--rule', 'lu', '{"kind":"point","value":0.25}', '{"kind":"interval","l":0.2,"u":0.9}'],
     0, '{"kind": "point", "value": 0.25}\n', ''),
    ('combine-lu-interval-point', ['combine', '--rule', 'lu', '{"kind":"interval","l":0.3,"u":0.5}', '{"kind":"point","value":0.25}'],
     0, '{"kind": "point", "value": 0.25}\n', ''),
    ('combine-lu-equal-points', ['combine', '--rule', 'lu', '{"kind":"point","value":0.25}', '{"kind":"point","value":0.25}'],
     0, '{"kind": "point", "value": 0.25}\n', ''),
    ('combine-lu-unequal-points', ['combine', '--rule', 'lu', '{"kind":"point","value":0.25}', '{"kind":"point","value":0.75}'],
     3, '{"conflict": [0.25, 0.75]}\n', ''),
    ('combine-lu-unequal-points-051-099', ['combine', '--rule', 'lu', '{"kind":"point","value":0.51}', '{"kind":"point","value":0.99}'],
     3, '{"conflict": [0.51, 0.99]}\n', ''),
    ('combine-lu-conflict-stops-the-fold', ['combine', '--rule', 'lu', '{"kind":"point","value":0.25}', '{"kind":"point","value":0.75}', '{"kind":"interval"}'],
     3, '{"conflict": [0.25, 0.75]}\n', ''),
    ('combine-lu-malformed', ['combine', '--rule', 'lu', '{"kind":"interval","l":0.3,"u":0.5}', '{"kind":"interval","l":0.3}'],
     1, '', "error: bad frequency object: {'kind': 'interval', 'l': 0.3}\n"),
    ('combine-dempster-three', ['combine', '--rule', 'dempster', '{"bel":0.2,"pl":0.7}', '{"bel":0.5,"pl":1}', '{"bel":0,"pl":0.6}'],
     0, '{"bel": 0.40298507462686567, "pl": 0.626865671641791}\n', ''),
    ('combine-dempster-malformed', ['combine', '--rule', 'dempster', '{"bel":0.2,"pl":0.7}', '42'],
     1, '', 'error: bad belief interval object: 42\n'),
    ('defect-demo-default', ['defect-demo'],
     0, '{"q": 0.7, "steps": 2000, "predicted_dempster_limit": 1.0, "final_bel": 1.0, "final_pl": 1.0, "final_l": 0.6996501749125438, "final_u": 0.7001499250374813, "final_f": 0.7, "dempster_gap_to_q": 0.30000000000000004, "lower_frequency_gap_to_q": 0.00034982508745617924}\n', ''),
    ('defect-demo-balanced', ['defect-demo', '--q', '0.5', '--steps', '1000'],
     0, '{"q": 0.5, "steps": 1000, "predicted_dempster_limit": 0.5, "final_bel": 0.5, "final_pl": 0.5, "final_l": 0.4995004995004995, "final_u": 0.5004995004995005, "final_f": 0.5, "dempster_gap_to_q": 0.0, "lower_frequency_gap_to_q": 0.0004995004995004826}\n', ''),
    ('defect-demo-unequal-weights', ['defect-demo', '--q', '0.3', '--steps', '500', '--w0-pos', '2', '--w0-neg', '0.5'],
     0, '{"q": 0.3, "steps": 500, "predicted_dempster_limit": 1.0, "final_bel": 1.0, "final_pl": 1.0, "final_l": 0.6302521008403361, "final_u": 0.6323529411764706, "final_f": 0.631578947368421, "dempster_gap_to_q": 0.7, "lower_frequency_gap_to_q": 0.3302521008403361}\n', ''),
    ('defect-demo-pl-clamped', ['defect-demo', '--q', '1', '--steps', '1', '--w0-pos', '0.23563534375756282'],
     0, '{"q": 1.0, "steps": 1, "predicted_dempster_limit": 1.0, "final_bel": 0.2099312750976913, "final_pl": 1.0, "final_l": 0.19069974402075335, "final_u": 1.0, "final_f": 1.0, "dempster_gap_to_q": 0.7900687249023087, "lower_frequency_gap_to_q": 0.8093002559792466}\n', ''),
    ('delta-demo-default-steps', ['delta-demo', '--delta', '2'],
     0, '{"delta": 2, "steps": 10000, "final_bel": 0.11920292202211755, "analytic_limit": 0.11920292202211755, "abs_difference": 0.0}\n', ''),
    ('delta-demo-symmetric', ['delta-demo', '--delta', '0', '--steps', '1000'],
     0, '{"delta": 0, "steps": 1000, "final_bel": 0.5, "analytic_limit": 0.5, "abs_difference": 0.0}\n', ''),
    ('delta-demo-odd-steps', ['delta-demo', '--delta', '3', '--steps', '501'],
     0, '{"delta": 3, "steps": 501, "final_bel": 0.04742587317756679, "analytic_limit": 0.04742587317756679, "abs_difference": 0.0}\n', ''),
]


@pytest.mark.parametrize("argv, code, out, err", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_cli_output_is_unchanged(capsys, argv, code, out, err):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_combine_dempster_three_is_near_a_200_bit_reference(capsys):
    # the rule on the operands' masses, folded at 61 digits: each printed
    # value is the float nearest it
    argv = next(case[1] for case in CASES if case[0] == "combine-dempster-three")
    assert main(list(argv)) == 0
    got = json.loads(capsys.readouterr().out)
    operands = [BeliefInterval.from_dict(json.loads(arg)).masses() for arg in argv[3:]]
    bel, _, width = reduce(highprec.dempster, operands)
    with highprec.context():
        pl = bel + width
    assert highprec.ulps(got["bel"], bel) <= 0.5 and highprec.ulps(got["pl"], pl) <= 0.5
